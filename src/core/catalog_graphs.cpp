#include "core/catalog_graphs.hpp"

#include <cstdlib>
#include <exception>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace prvm {

std::optional<std::size_t> ScoreTableSet::demand_slot(std::size_t pm_type,
                                                      std::size_t vm_type) const {
  return slots_.at(pm_type).at(vm_type);
}

std::filesystem::path default_cache_dir() {
  if (const char* dir = std::getenv("PRVM_CACHE_DIR"); dir != nullptr && *dir != '\0') {
    return std::filesystem::path(dir);
  }
  return std::filesystem::path(".prvm-cache");
}

namespace {

void set_slots(const Catalog& catalog, std::size_t p,
               std::vector<std::optional<std::size_t>>& slots) {
  // Invert vm_type_of into per-VM-type slots.
  const Catalog::FittingDemands& fitting = catalog.fitting_demands(p);
  slots.assign(catalog.vm_types().size(), std::nullopt);
  for (std::size_t i = 0; i < fitting.vm_type_of.size(); ++i) {
    slots[fitting.vm_type_of[i]] = i;
  }
}

const Catalog::FittingDemands& fitting_demands(const Catalog& catalog, std::size_t p) {
  const Catalog::FittingDemands& fitting = catalog.fitting_demands(p);
  PRVM_REQUIRE(!fitting.demands.empty(), "no VM type fits PM type " + catalog.pm_type(p).name);
  return fitting;
}

// Builds the table of PM type p. Build time and the miss count go to the
// global registry: score tables are built before any service (and its
// registry) exists, and the daemon exposes the global registry anyway.
ScoreTable build_table(const Catalog& catalog, std::size_t p, const ScoreTableOptions& options) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("prvm_score_table_cache_misses_total").inc();
  const obs::ScopedTimerNs timer(reg.histogram("prvm_score_table_build_ns"));
  const ProfileGraph graph(catalog.shape(p), catalog.fitting_demands(p).demands);
  return ScoreTable::build(graph, options);
}

// The table of a valid image at `image` built with `digest`, mapped with
// `demands`, the demand list that digest covers; nullopt when the file is
// missing, corrupt, of another format version or of another digest (the
// caller rebuilds and overwrites it).
std::optional<ScoreTable> map_valid_image(const std::filesystem::path& image,
                                          const std::string& digest,
                                          const std::vector<QuantizedDemand>& demands) {
  if (!std::filesystem::exists(image)) return std::nullopt;
  obs::Registry& reg = obs::Registry::global();
  try {
    const obs::ScopedTimerNs timer(reg.histogram("prvm_score_table_load_ns"));
    ScoreTable table = ScoreTable::map_image(image, demands);
    if (table.digest_string() != digest) return std::nullopt;
    reg.counter("prvm_score_table_cache_hits_total").inc();
    return table;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// Hands the pages a table build freed back to the OS: malloc_trim(0)
// releases the free pages inside every arena and the free top of the main
// heap, but not the free top of a worker thread's arena, which the trim
// threshold prvm_serve pins (common/allocator.hpp) takes care of. The build's
// freed arrays sit inside the heap too, so the daemon needs both: without
// the trim it kept 6.0-17 MB of anonymous memory instead of 5.6 MB, and a
// process that pins nothing keeps 26 MB instead of 8.7.
void release_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

ScoreTableSet build_score_tables(const Catalog& catalog, const ScoreTableOptions& options,
                                 const std::optional<std::filesystem::path>& dir,
                                 ScoreImageReport* report) {
  ScoreImageReport local;
  ScoreTableSet set;
  set.tables_.reserve(catalog.pm_types().size());
  set.slots_.resize(catalog.pm_types().size());
  if (dir.has_value()) {
    std::error_code ec;
    std::filesystem::create_directories(*dir, ec);
  }

  for (std::size_t p = 0; p < catalog.pm_types().size(); ++p) {
    const std::vector<QuantizedDemand>& demands = fitting_demands(catalog, p).demands;
    const std::string digest = ScoreTable::digest(catalog.shape(p), demands, options);
    if (!dir.has_value()) {
      set.tables_.push_back(build_table(catalog, p, options));
    } else {
      const std::filesystem::path image = *dir / ("scoretable-" + digest + ".img");
      if (std::optional<ScoreTable> mapped = map_valid_image(image, digest, demands)) {
        set.tables_.push_back(std::move(*mapped));
        ++local.mapped;
      } else {
        // Publish the built table and serve it from the mapping, so this
        // process already shares pages with the next one.
        ScoreTable table = build_table(catalog, p, options);
        try {
          {
            const obs::ScopedTimerNs timer(score_table_stage_histogram("image_write"));
            table.save_image(image);
          }
          set.tables_.push_back(ScoreTable::map_image(image, demands));
          ++local.written;
        } catch (const std::exception&) {
          set.tables_.push_back(std::move(table));
          ++local.fallback;
        }
      }
    }
    set_slots(catalog, p, set.slots_[p]);
  }
  release_freed_memory();
  if (report != nullptr) *report = local;
  return set;
}

IncrementalScoreTables::IncrementalScoreTables(const Catalog& catalog,
                                               const ScoreTableOptions& options)
    : options_(options) {
  graphs_.reserve(catalog.pm_types().size());
  set_.tables_.reserve(catalog.pm_types().size());
  for (std::size_t p = 0; p < catalog.pm_types().size(); ++p) {
    graphs_.emplace_back(catalog.shape(p), fitting_demands(catalog, p).demands);
    set_.tables_.push_back(ScoreTable::build(graphs_.back(), options_));
  }
  rebuild_slots(catalog);
}

IncrementalScoreTables::ExtendReport IncrementalScoreTables::extend_to(
    const Catalog& catalog, const ProfileGraphOptions& graph_options) {
  PRVM_REQUIRE(catalog.pm_types().size() == graphs_.size(),
               "extend_to: PM type set changed");
  ExtendReport report;
  for (std::size_t p = 0; p < graphs_.size(); ++p) {
    PRVM_REQUIRE(catalog.shape(p) == graphs_[p].shape(), "extend_to: PM shape changed");
    const Catalog::FittingDemands& fitting = catalog.fitting_demands(p);
    const std::vector<QuantizedDemand>& old_demands = graphs_[p].demands();
    PRVM_REQUIRE(fitting.demands.size() >= old_demands.size(),
                 "extend_to: fitting VM types shrank for PM type " + catalog.pm_type(p).name);
    // Appending VM types preserves the fitting order, so the old demand list
    // must be a literal prefix of the new one.
    for (std::size_t i = 0; i < old_demands.size(); ++i) {
      PRVM_REQUIRE(fitting.demands[i].group_items == old_demands[i].group_items,
                   "extend_to: existing VM types changed (only appends are supported)");
    }
    if (fitting.demands.size() == old_demands.size()) {
      ++report.unchanged;
      continue;
    }
    std::vector<QuantizedDemand> new_demands(fitting.demands.begin() +
                                                 static_cast<std::ptrdiff_t>(old_demands.size()),
                                             fitting.demands.end());
    const ProfileGraph::ExtendStats stats = graphs_[p].extend(std::move(new_demands),
                                                              graph_options);
    report.new_nodes += stats.new_nodes;
    report.new_edges += stats.new_edges;
    ++(stats.changed() ? report.graph_extends : report.fast_extends);
    set_.tables_[p] = ScoreTable::extend(set_.tables_[p], graphs_[p], stats.changed(), options_);
  }
  rebuild_slots(catalog);
  return report;
}

void IncrementalScoreTables::rebuild_slots(const Catalog& catalog) {
  set_.slots_.resize(graphs_.size());
  for (std::size_t p = 0; p < graphs_.size(); ++p) set_slots(catalog, p, set_.slots_[p]);
}

}  // namespace prvm
