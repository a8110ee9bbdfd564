// Discrete-event simulation kernel with SystemC semantics.
//
// The kernel reproduces the OSCI simulation cycle that the paper's SystemC
// Temporal Checker relies on:
//
//   1. evaluate phase  - run every runnable process; immediate notifications
//                        make further processes runnable within the phase
//   2. update phase    - primitive channels (Signal<T>) commit pending writes
//   3. delta phase     - delta-notified events wake their waiters; if any
//                        process became runnable, start a new delta cycle at
//                        the same simulation time
//   4. time advance    - otherwise advance to the earliest timed notification
//
// Processes come in two flavours, mirroring SC_THREAD and SC_METHOD:
//   - thread processes: C++20 coroutines returning sim::Task that suspend
//     with `co_await event`, `co_await sim.delay(t)`, ...
//   - method processes: plain callbacks with static sensitivity, re-run every
//     time one of their events fires.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace esv::obs {
class MetricsRegistry;
}

namespace esv::sim {

class Simulation;
class Event;
class Process;
class MethodProcess;

/// Primitive-channel interface: anything that defers state commits to the
/// update phase (e.g. Signal<T>) implements update() and calls
/// Simulation::request_update() from its write path.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual void update() = 0;
};

/// Coroutine type for thread processes. A Task is created suspended; handing
/// it to Simulation::spawn() schedules it for time zero.
class [[nodiscard]] Task {
 public:
  struct promise_type {
    Task get_return_object();
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }

    Process* process = nullptr;
    std::exception_ptr exception;
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  Task& operator=(Task&& other) noexcept;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task();

  Handle release() {
    Handle h = handle_;
    handle_ = {};
    return h;
  }

 private:
  Handle handle_;
};

/// Base class for both process flavours. The kernel identifies pending waits
/// with an epoch counter: waking a process bumps the epoch, so wake-ups queued
/// for an earlier epoch (e.g. the losing events of a wait-any) are ignored.
class Process {
 public:
  enum class State { kReady, kWaiting, kTerminated };

  Process(Simulation& sim, std::string name);
  virtual ~Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  State state() const { return state_; }
  std::uint64_t epoch() const { return epoch_; }
  Simulation& simulation() { return sim_; }

 protected:
  friend class Simulation;
  friend class Event;
  friend struct EventAwaiter;
  friend struct AnyEventAwaiter;
  friend struct DelayAwaiter;
  friend struct DeltaAwaiter;

  /// Runs the process body once (resume the coroutine / call the method).
  virtual void execute() = 0;

  Simulation& sim_;
  std::string name_;
  State state_ = State::kReady;
  std::uint64_t epoch_ = 0;  // bumped on every wake-up
  bool in_runnable_ = false;
};

/// SC_THREAD analogue: owns the coroutine frame.
class ThreadProcess final : public Process {
 public:
  ThreadProcess(Simulation& sim, std::string name, Task task);
  ~ThreadProcess() override;

 private:
  void execute() override;
  Task::Handle handle_;
};

/// SC_METHOD analogue: a callback with static sensitivity.
class MethodProcess final : public Process {
 public:
  MethodProcess(Simulation& sim, std::string name, std::function<void()> fn);

 private:
  void execute() override;
  std::function<void()> fn_;
};

/// SystemC-style event. Supports immediate, delta, and timed notification
/// with the standard override rules (immediate fires now; a pending delta
/// notification discards a pending timed one; an earlier timed notification
/// discards a later one).
class Event {
 public:
  explicit Event(Simulation& sim, std::string name = "event");
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  const std::string& name() const { return name_; }

  /// Immediate notification: waiters become runnable in the current
  /// evaluate phase.
  void notify();
  /// Delta notification: waiters wake in the next delta cycle.
  void notify_delta();
  /// Timed notification after `delay`.
  void notify(Time delay);
  /// Cancels any pending delta/timed notification.
  void cancel();

 private:
  friend class Simulation;
  struct Waiter {
    Process* process;
    std::uint64_t epoch;
  };

  void fire();  // wake dynamic waiters + trigger static methods
  void add_waiter(Process& p);
  void add_static_method(MethodProcess& m);

  friend struct EventAwaiter;
  friend struct AnyEventAwaiter;

  Simulation& sim_;
  std::string name_;
  std::vector<Waiter> waiters_;
  std::vector<MethodProcess*> static_methods_;

  enum class Pending { kNone, kDelta, kTimed };
  Pending pending_ = Pending::kNone;
  Time pending_time_;
  std::uint64_t pending_seq_ = 0;  // validates queued timed notifications
};

/// Awaiter for `co_await event;`.
struct EventAwaiter {
  Event& event;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Task::promise_type> h);
  void await_resume() const noexcept {}
};

inline EventAwaiter operator co_await(Event& e) { return EventAwaiter{e}; }

/// Awaiter for `co_await any_of(e1, e2, ...);` — resumes on the first event.
struct AnyEventAwaiter {
  std::vector<Event*> events;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Task::promise_type> h);
  void await_resume() const noexcept {}
};

template <typename... Events>
AnyEventAwaiter any_of(Events&... events) {
  return AnyEventAwaiter{{(&events)...}};
}

/// Awaiter for `co_await sim.delay(t);`.
struct DelayAwaiter {
  Simulation& sim;
  Time delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Task::promise_type> h);
  void await_resume() const noexcept {}
};

/// Awaiter for `co_await sim.next_delta();` — wake in the next delta cycle.
struct DeltaAwaiter {
  Simulation& sim;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Task::promise_type> h);
  void await_resume() const noexcept {}
};

/// The simulation context. Owns all processes; everything is deterministic:
/// runnable processes execute in FIFO order of scheduling.
class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }
  std::uint64_t delta_count() const { return delta_count_; }
  std::uint64_t process_runs() const { return process_runs_; }

  /// Registers a thread process; it first runs at time 0 (or at the current
  /// time if spawned mid-simulation).
  ThreadProcess& spawn(std::string name, Task task);

  /// Registers a method process with static sensitivity. If `run_at_start`
  /// the method also runs once at time 0 (SystemC default).
  MethodProcess& create_method(std::string name, std::function<void()> fn,
                               std::vector<Event*> sensitivity,
                               bool run_at_start = true);

  /// Runs until no activity remains or simulated time would pass `until`.
  /// Returns the time at which the run stopped.
  Time run(Time until = Time::max());

  /// Requests sc_stop(): the current delta cycle completes, then run() exits.
  void stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Channel update request (signals call this from their write path).
  void request_update(Channel& channel);

  /// Attaches a metrics registry (docs/OBSERVABILITY.md): every run() call
  /// adds the delta cycles and process executions it consumed to the
  /// `sim.delta_cycles` / `sim.process_runs` counters. Pass nullptr to
  /// detach. The kernel pays nothing per event — counters are flushed once
  /// per run() return.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  DelayAwaiter delay(Time t) { return DelayAwaiter{*this, t}; }
  DeltaAwaiter next_delta() { return DeltaAwaiter{*this}; }

 private:
  friend class Event;
  friend class ThreadProcess;
  friend struct EventAwaiter;
  friend struct AnyEventAwaiter;
  friend struct DelayAwaiter;
  friend struct DeltaAwaiter;

  struct TimedEntry {
    Time time;
    std::uint64_t seq;        // FIFO tiebreak + timed-notify validation
    Event* event = nullptr;   // either an event fires ...
    Process* process = nullptr;  // ... or a process wakes directly
    std::uint64_t process_epoch = 0;
    std::uint64_t event_seq = 0;

    bool operator>(const TimedEntry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  Time run_loop(Time until);
  void make_runnable(Process& p);
  void wake(Process& p, std::uint64_t epoch);  // epoch-checked wake-up
  void schedule_timed_wake(Process& p, Time delay);
  void schedule_delta_wake(Process& p);
  void schedule_timed_event(Event& e, Time delay, std::uint64_t event_seq);
  void add_delta_event(Event& e);
  void run_evaluate_phase();
  void run_update_phase();
  bool run_delta_phase();  // returns true if anything became runnable

  Time now_;
  std::uint64_t delta_count_ = 0;
  std::uint64_t process_runs_ = 0;
  std::uint64_t timed_seq_ = 0;
  bool stop_requested_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;

  std::vector<std::unique_ptr<Process>> processes_;
  std::deque<Process*> runnable_;
  std::vector<Channel*> update_queue_;
  std::vector<Event*> delta_events_;
  struct DeltaWake {
    Process* process;
    std::uint64_t epoch;
  };
  std::vector<DeltaWake> delta_wakes_;
  std::priority_queue<TimedEntry, std::vector<TimedEntry>, std::greater<>>
      timed_queue_;
};

}  // namespace esv::sim
