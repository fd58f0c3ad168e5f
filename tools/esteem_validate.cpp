// esteem_validate: the paper-fidelity gate.
//
//   esteem_validate --check                 score the figure matrix against
//                                           validation/golden.json (exit 1
//                                           on drift or shape failure)
//   esteem_validate --update-golden         re-record the golden entry for
//                                           the current scale (prints the
//                                           diff it is about to commit)
//   esteem_validate --results               render the results book
//                                           (RESULTS.md) to stdout
//   esteem_validate --list                  show the figure matrix
//
// Options:
//   --golden PATH       golden file (default validation/golden.json)
//   --scale smoke|bench|paper
//                       pinned 300k-instr smoke scale (default), the
//                       env-driven bench scale (ESTEEM_INSTR etc.), or the
//                       paper's 400M-instr scale made tractable by SMARTS
//                       sampling (docs/SAMPLING.md)
//   --instr N --warmup N --seed N   override the chosen scale
//   --jobs N            sweep worker threads (0 = hardware concurrency)
//   --figures a,b,...   run a subset (default fig3,fig4,fig5,fig6)
//   --perturb-refresh-energy X      scale eDRAM refresh energy by X before
//                       running — a deliberate-drift hook for testing that
//                       the gate actually fails when the model moves
//   --journal-dir DIR   crash-safe journaling: each figure journals its
//                       completed rows into the service directory
//                       DIR/<figid>-<sweep hash>/ as it runs; rerunning the
//                       same command restores them instead of re-running
//
// SIGINT/SIGTERM drain the figure matrix gracefully: completed rows stay
// journaled and the process exits with code 5 instead of scoring partial
// data.
//
// Paper-shape checks (signs, §7.2 bands) are gated at the bench and paper
// scales: at tiny instruction budgets the reconfiguration machinery barely
// engages and the paper's ordering inverts (see EXPERIMENTS.md).
// Drift-vs-golden is gated at every scale.
//
// Exit codes: 0 pass, 1 check failed, 2 usage error, 4 runtime error,
// 5 interrupted.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "resilience/shutdown.hpp"
#include "validation/figures.hpp"
#include "validation/golden.hpp"
#include "validation/results_book.hpp"
#include "validation/scorecard.hpp"

namespace {

using namespace esteem;
using namespace esteem::validation;

enum class Mode { Check, UpdateGolden, Results, List };

struct Options {
  Mode mode = Mode::Check;
  std::string golden_path = "validation/golden.json";
  std::string scale_name = "smoke";
  std::vector<std::string> figure_ids{"fig3", "fig4", "fig5", "fig6"};
  double perturb_refresh = 1.0;
  std::string journal_dir;
  // Scale overrides (<0 = keep the scale's own value).
  long long instr = -1;
  long long warmup = -1;
  long long seed = -1;
  long long jobs = -1;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: esteem_validate [--check|--update-golden|--results|--list]\n"
               "                       [--golden PATH] [--scale smoke|bench|paper]\n"
               "                       [--instr N] [--warmup N] [--seed N] [--jobs N]\n"
               "                       [--figures fig3,fig4,...]\n"
               "                       [--perturb-refresh-energy X]\n"
               "                       [--journal-dir DIR]\n");
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string tok = s.substr(start, comma - start);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      opt.mode = Mode::Check;
    } else if (a == "--update-golden") {
      opt.mode = Mode::UpdateGolden;
    } else if (a == "--results") {
      opt.mode = Mode::Results;
    } else if (a == "--list") {
      opt.mode = Mode::List;
    } else if (a == "--golden") {
      if (!need_value(i)) return false;
      opt.golden_path = argv[++i];
    } else if (a == "--scale") {
      if (!need_value(i)) return false;
      opt.scale_name = argv[++i];
      if (opt.scale_name != "smoke" && opt.scale_name != "bench" &&
          opt.scale_name != "paper") {
        std::fprintf(stderr, "--scale must be 'smoke', 'bench' or 'paper'\n");
        return false;
      }
    } else if (a == "--figures") {
      if (!need_value(i)) return false;
      opt.figure_ids = split_csv(argv[++i]);
      for (const std::string& id : opt.figure_ids) {
        if (find_figure(id) == nullptr) {
          std::fprintf(stderr, "unknown figure id '%s'\n", id.c_str());
          return false;
        }
      }
    } else if (a == "--journal-dir") {
      if (!need_value(i)) return false;
      opt.journal_dir = argv[++i];
    } else if (a == "--perturb-refresh-energy") {
      if (!need_value(i)) return false;
      opt.perturb_refresh = std::atof(argv[++i]);
      if (opt.perturb_refresh <= 0.0) {
        std::fprintf(stderr, "--perturb-refresh-energy must be > 0\n");
        return false;
      }
    } else if (a == "--instr" || a == "--warmup" || a == "--seed" || a == "--jobs") {
      if (!need_value(i)) return false;
      const long long v = std::atoll(argv[++i]);
      if (v < 0 || (v == 0 && a != "--jobs" && a != "--seed")) {
        std::fprintf(stderr, "%s must be positive\n", a.c_str());
        return false;
      }
      if (a == "--instr") opt.instr = v;
      if (a == "--warmup") opt.warmup = v;
      if (a == "--seed") opt.seed = v;
      if (a == "--jobs") opt.jobs = v;
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

ScaleSpec resolve_scale(const Options& opt) {
  ScaleSpec s = opt.scale_name == "bench"   ? bench_scale()
                : opt.scale_name == "paper" ? paper_scale()
                                            : smoke_scale();
  if (opt.instr >= 0) {
    s.instr_per_core = static_cast<instr_t>(opt.instr);
    if (opt.warmup < 0) s.warmup_per_core = s.instr_per_core / 5;
  }
  if (opt.warmup >= 0) s.warmup_per_core = static_cast<instr_t>(opt.warmup);
  if (opt.seed >= 0) s.seed = static_cast<std::uint64_t>(opt.seed);
  if (opt.jobs >= 0) s.threads = static_cast<unsigned>(opt.jobs);
  return s;
}

/// Runs the figure matrix; `interrupted` reports whether a shutdown request
/// cut it short (remaining figures are skipped entirely).
std::vector<FigureResult> run_matrix(const Options& opt, const ScaleSpec& scale,
                                     bool& interrupted) {
  std::function<void(SystemConfig&)> mutate;
  if (opt.perturb_refresh != 1.0) {
    const double k = opt.perturb_refresh;
    mutate = [k](SystemConfig& cfg) { cfg.energy.refresh_scale = k; };
  }
  FigureRunOptions run_opts;
  run_opts.journal_dir = opt.journal_dir;
  std::vector<FigureResult> results;
  interrupted = false;
  for (const std::string& id : opt.figure_ids) {
    if (resilience::shutdown_requested()) {
      interrupted = true;
      break;
    }
    const FigureSpec* spec = find_figure(id);
    std::fprintf(stderr, "running %s at scale '%s' (%llu instr/core)...\n",
                 id.c_str(), scale.label.c_str(),
                 static_cast<unsigned long long>(scale.instr_per_core));
    results.push_back(run_figure(*spec, scale, mutate, run_opts));
    interrupted |= results.back().sweep.interrupted;
  }
  return results;
}

int do_check(const Options& opt, const ScaleSpec& scale) {
  GoldenFile golden;
  bool have_golden = false;
  try {
    golden = load_golden(opt.golden_path);
    have_golden = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }

  bool interrupted = false;
  const std::vector<FigureResult> results = run_matrix(opt, scale, interrupted);
  if (interrupted) {
    std::fprintf(stderr, "validation interrupted; not scoring partial data "
                         "(with --journal-dir, rerun the same command to continue)\n");
    return resilience::kExitInterrupted;
  }
  const bool paper_checks = scale.label == "bench" || scale.label == "paper";
  const Scorecard card = build_scorecard(results, have_golden ? &golden : nullptr,
                                         paper_checks);
  std::fputs(scorecard_text(card).c_str(), stdout);
  if (!card.pass()) {
    std::fprintf(stdout,
                 "\nDrift detected (or golden missing). If the change is "
                 "intentional, re-record with:\n  esteem_validate "
                 "--update-golden --scale %s --golden %s\n",
                 opt.scale_name.c_str(), opt.golden_path.c_str());
    return 1;
  }
  return 0;
}

int do_update_golden(const Options& opt, const ScaleSpec& scale) {
  if (opt.perturb_refresh != 1.0) {
    std::fprintf(stderr, "refusing to record a golden from a perturbed run\n");
    return 2;
  }
  bool interrupted = false;
  const std::vector<FigureResult> results = run_matrix(opt, scale, interrupted);
  if (interrupted) {
    std::fprintf(stderr, "validation interrupted; not recording a golden\n");
    return resilience::kExitInterrupted;
  }
  for (const FigureResult& r : results) {
    if (!r.sweep.ok()) {
      std::fprintf(stderr, "%s had sweep errors; not recording a golden\n",
                   r.spec->id.c_str());
      return 4;
    }
  }

  GoldenFile golden;
  try {
    golden = load_golden(opt.golden_path);
  } catch (const std::exception&) {
    std::fprintf(stderr, "starting a fresh golden file at %s\n",
                 opt.golden_path.c_str());
  }
  golden.generator = "esteem_validate --update-golden (scale " +
                     scale_fingerprint(scale) + ")";

  GoldenScale fresh = to_golden(results);
  const GoldenScale* old = golden.find_scale(fresh.fingerprint);
  if (old != nullptr) {
    const std::string diff = golden_diff_text(*old, fresh);
    if (diff.empty()) {
      std::printf("golden entry for %s unchanged\n", fresh.fingerprint.c_str());
    } else {
      std::printf("updating golden entry for %s:\n%s", fresh.fingerprint.c_str(),
                  diff.c_str());
    }
  } else {
    std::printf("recording new golden entry for %s (%zu figures)\n",
                fresh.fingerprint.c_str(), fresh.figures.size());
  }
  golden.upsert_scale(std::move(fresh));
  save_golden(opt.golden_path, golden);
  std::printf("wrote %s\n", opt.golden_path.c_str());
  return 0;
}

int do_results(const Options& opt, const ScaleSpec& scale) {
  GoldenFile golden;
  bool have_golden = false;
  try {
    golden = load_golden(opt.golden_path);
    have_golden = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
  bool interrupted = false;
  const std::vector<FigureResult> results = run_matrix(opt, scale, interrupted);
  if (interrupted) {
    std::fprintf(stderr, "validation interrupted; not rendering partial "
                         "results\n");
    return resilience::kExitInterrupted;
  }
  const Scorecard card = build_scorecard(
      results, have_golden ? &golden : nullptr,
      scale.label == "bench" || scale.label == "paper");
  const ExactChecks checks = run_exact_checks(scale);
  std::fputs(results_book_markdown(results, card, checks).c_str(), stdout);
  return 0;
}

int do_list() {
  for (const FigureSpec& f : figure_matrix()) {
    std::printf("%-5s %s\n      %s\n", f.id.c_str(), f.title.c_str(),
                f.claim.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 2;
  }
  try {
    if (opt.mode == Mode::List) return do_list();
    esteem::resilience::install_signal_handlers();
    const ScaleSpec scale = resolve_scale(opt);
    switch (opt.mode) {
      case Mode::Check: return do_check(opt, scale);
      case Mode::UpdateGolden: return do_update_golden(opt, scale);
      case Mode::Results: return do_results(opt, scale);
      case Mode::List: break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esteem_validate: %s\n", e.what());
    return 4;
  }
  return 0;
}
