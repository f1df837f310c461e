// Deterministic fault injection: named failpoints with a process-wide
// registry.
//
// A failpoint is a named site in production code where a test (or an
// operator, via the SCORPION_FAILPOINTS env var / `scorpiond --failpoints`)
// can inject a failure: an error Status, a sleep (deadline pressure), a
// process crash, or corruption/truncation of the next wire frame. Sites are
// declared inline with one of two macros:
//
//   Status DoThing() {
//     SCORPION_FAILPOINT("layer.thing");   // returns the injected Status
//     ...
//   }
//
//   SCORPION_FAILPOINT_HIT("worker.explain", hit);
//   if (hit.kind == FailpointHit::Kind::kCrash) { /* custom handling */ }
//
// Cost model: each macro expands to a function-local constant-initialized
// `FailpointSite` holding a single std::atomic<uintptr_t>. The disarmed
// fast path is exactly one relaxed load and a compare against zero — no
// lock, no hash lookup, no function-local-static guard (constinit). The
// first evaluation of a site binds it to the registry under a mutex; from
// then on arming/disarming a name flips the per-site word directly.
//
// Triggers are deterministic and seeded: `always`, `once`, `every(N)`,
// `after(N)` (fires on evaluations N+1, N+2, ...), and `prob(P,SEED)`
// (splitmix64 over the per-site evaluation index — the Kth evaluation of a
// site either always fires or never fires for a given seed, regardless of
// wall clock or thread interleaving of *other* sites).
//
// Spec grammar (env var / --failpoints flag / ArmFromSpec), entries joined
// by ';':
//
//   name '=' trigger ':' action
//   trigger := always | once | every(N) | after(N) | prob(P) | prob(P,SEED)
//   action  := error | error(CODE) | sleep(SECONDS) | crash | corrupt
//            | truncate
//   CODE    := io | unavailable | deadline | cancelled | internal
//            | invalid | failed_precondition
//
// e.g. SCORPION_FAILPOINTS='worker.explain=after(2):crash;net.write_frame=every(5):corrupt'
//
// Registered armed state is never freed (it is retired to an immortal list
// on disarm/re-arm), so a site racing with Disarm can never dereference a
// dangling config. A disarmed registry has zero armed state and sites stay
// on the one-load fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace scorpion {

/// \brief The outcome of evaluating an armed failpoint.
struct FailpointHit {
  enum class Kind {
    kNone,           // did not fire (or site disarmed)
    kStatus,         // return the injected `status`
    kCrash,          // caller should crash (or simulate crashing)
    kCorruptFrame,   // frame-aware sites: corrupt the next wire frame
    kTruncateFrame,  // frame-aware sites: truncate the next wire frame
  };
  Kind kind = Kind::kNone;
  Status status = Status::OK();

  bool fired() const { return kind != Kind::kNone; }
};

/// \brief Per-call-site state. One of these lives as a function-local
/// `static constinit` inside each SCORPION_FAILPOINT* expansion.
///
/// `state` encodes: kUnbound (initial; slow path registers the site),
/// kDisarmed (fast path: single relaxed load), or a pointer to the armed
/// config owned by the registry.
struct FailpointSite {
  static constexpr uintptr_t kDisarmed = 0;
  static constexpr uintptr_t kUnbound = 1;

  std::atomic<uintptr_t> state{kUnbound};
};

namespace failpoints {

/// \brief A parsed arming directive for one failpoint name.
struct Config {
  enum class Trigger { kAlways, kOnce, kEveryNth, kAfterN, kProbability };
  enum class Action { kError, kSleep, kCrash, kCorruptFrame, kTruncateFrame };

  Trigger trigger = Trigger::kAlways;
  uint64_t n = 1;            // every(N) / after(N)
  double probability = 1.0;  // prob(P, SEED)
  uint64_t seed = 0;

  Action action = Action::kError;
  StatusCode code = StatusCode::kIOError;  // error(CODE)
  double sleep_seconds = 0.0;              // sleep(SECONDS)

  // Convenience constructors for the common test shapes.
  static Config ErrorOnce(StatusCode code = StatusCode::kIOError);
  static Config ErrorAlways(StatusCode code = StatusCode::kIOError);
  static Config CrashOnce();
  static Config CrashAfter(uint64_t n);
};

/// \brief Arm `name` with `config`. Takes effect for every bound and
/// future site sharing that name; re-arming replaces the previous config
/// (and resets its trigger counters).
void Arm(const std::string& name, const Config& config);

/// \brief Parse and arm a `name=trigger:action;...` spec (grammar above).
/// Returns InvalidArgument without arming anything on a malformed spec.
Status ArmFromSpec(const std::string& spec);

/// \brief Parse one `trigger:action` clause (no name). Exposed for tests.
Result<Config> ParseConfig(const std::string& clause);

void Disarm(const std::string& name);
void DisarmAll();

/// \brief Names currently armed, sorted.
std::vector<std::string> ArmedNames();

/// \brief Total number of fires (any site, any action) since process start.
uint64_t TotalTripped();

/// \brief Fires of the named failpoint under its *current* arming (resets
/// on re-arm; 0 when disarmed).
uint64_t TrippedCount(const std::string& name);

/// \brief Replace the crash action's handler (default: std::_Exit(86)).
/// Returns the previous handler. Tests hook this to observe crashes
/// in-process; the handler must not return control to the failpoint site
/// unless the test tolerates the site continuing as if nothing fired.
using CrashHandler = void (*)();
CrashHandler SetCrashHandler(CrashHandler handler);

/// \brief Invoke the installed crash handler (abort() if it returns).
[[noreturn]] void CrashNow(const char* name);

/// \brief Slow path: bind-if-needed and evaluate the armed config.
/// Called only when the site word is not kDisarmed.
FailpointHit Fire(const char* name, FailpointSite& site);

/// \brief Slow path for Status-returning sites: maps a hit to a Status
/// (kStatus → the injected status; kCrash → CrashNow(); frame actions at a
/// non-frame site → IOError). OK when the point did not fire.
Status FireStatus(const char* name, FailpointSite& site);

/// \brief RAII arming for tests: arms on construction, disarms on scope
/// exit.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, const Config& config)
      : name_(std::move(name)) {
    Arm(name_, config);
  }
  ~ScopedFailpoint() { Disarm(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace failpoints

/// \brief Declare a failpoint in a Status- or Result-returning function;
/// returns the injected Status from the enclosing function when it fires
/// with an error action (crash actions crash; frame actions degrade to
/// IOError since the site is not frame-aware).
#define SCORPION_FAILPOINT(name)                                          \
  do {                                                                    \
    static constinit ::scorpion::FailpointSite scorpion_fp_site;          \
    if (scorpion_fp_site.state.load(std::memory_order_relaxed) !=         \
        ::scorpion::FailpointSite::kDisarmed) {                           \
      ::scorpion::Status scorpion_fp_status =                             \
          ::scorpion::failpoints::FireStatus(name, scorpion_fp_site);     \
      if (!scorpion_fp_status.ok()) return scorpion_fp_status;            \
    }                                                                     \
  } while (false)

/// \brief Declare a failpoint and capture the hit into `hit_var` for
/// custom handling (frame corruption, in-process crash simulation, promise
/// fulfillment). `hit_var.kind == kNone` when disarmed or not fired.
#define SCORPION_FAILPOINT_HIT(name, hit_var)                             \
  ::scorpion::FailpointHit hit_var;                                       \
  do {                                                                    \
    static constinit ::scorpion::FailpointSite scorpion_fp_site;          \
    if (scorpion_fp_site.state.load(std::memory_order_relaxed) !=         \
        ::scorpion::FailpointSite::kDisarmed) {                           \
      hit_var = ::scorpion::failpoints::Fire(name, scorpion_fp_site);     \
    }                                                                     \
  } while (false)

}  // namespace scorpion
