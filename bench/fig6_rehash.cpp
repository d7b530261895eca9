// Fig. 6 — Insertion-failure (rehash) probability vs. number of items
// inserted: FAST's flat-structured cuckoo (adjacent-neighborhood windows)
// vs. standard two-choice cuckoo hashing.
//
// Tables of fixed capacity receive increasing item counts; the failure
// probability is (insertions that exhausted the kick budget) / (insertions
// attempted), averaged over independent seeds. The paper reports FAST about
// three orders of magnitude below standard cuckoo hashing.
#include <cstdio>

#include "hash/cuckoo_table.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "util/table.hpp"

namespace fast::bench {
namespace {

struct FailureRates {
  double standard_rate = 0;
  double flat_rate = 0;
};

FailureRates measure(std::size_t capacity, std::size_t items,
                     std::size_t trials, std::uint64_t dataset_salt) {
  std::size_t std_failures = 0, flat_failures = 0, attempts = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = dataset_salt * 1000 + trial;
    hash::CuckooTable standard(capacity, seed, 500);
    hash::FlatCuckooConfig fcfg;
    fcfg.capacity = capacity;
    fcfg.seed = seed;
    hash::FlatCuckooTable flat(fcfg);
    for (std::size_t i = 0; i < items; ++i) {
      const std::uint64_t key =
          hash::mix64(seed ^ (0xa11ceULL + i * 0x9e3779b97f4a7c15ULL));
      std_failures += !standard.insert(key, i);
      flat_failures += !flat.insert(key, i);
      ++attempts;
    }
  }
  return FailureRates{
      static_cast<double>(std_failures) / static_cast<double>(attempts),
      static_cast<double>(flat_failures) / static_cast<double>(attempts)};
}

void run_dataset(const char* name, std::uint64_t salt, std::size_t capacity,
                 std::size_t trials) {
  util::Table table({"items", "load", "standard cuckoo", "FAST (flat)",
                     "ratio"});
  for (double load = 0.30; load <= 0.951; load += 0.10) {
    const auto items = static_cast<std::size_t>(load *
                                                static_cast<double>(capacity));
    const FailureRates rates = measure(capacity, items, trials, salt);
    const double floor =
        1.0 / (static_cast<double>(items) * static_cast<double>(trials));
    const double flat_shown =
        rates.flat_rate > 0 ? rates.flat_rate : floor;  // detection floor
    table.add_row({std::to_string(items), util::fmt_percent(load, 0),
                   util::fmt_sci(rates.standard_rate),
                   rates.flat_rate > 0
                       ? util::fmt_sci(rates.flat_rate)
                       : std::string("<").append(util::fmt_sci(floor)),
                   rates.standard_rate > 0
                       ? util::fmt_double(rates.standard_rate / flat_shown, 0)
                       : "-"});
  }
  table.print(std::string("Fig. 6 — insertion-failure (rehash) probability (") +
              name + ")");
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  std::printf("== bench fig6: rehash probability ==\n");
  std::size_t capacity = 1 << 15;
  std::size_t trials = 8;
  if (argc > 1) capacity = static_cast<std::size_t>(std::atoi(argv[1]));
  if (argc > 2) trials = static_cast<std::size_t>(std::atoi(argv[2]));
  fast::bench::run_dataset("wuhan", 0x8a11, capacity, trials);
  fast::bench::run_dataset("shanghai", 0x54a4, capacity, trials);
  return 0;
}
