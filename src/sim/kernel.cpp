#include "sim/kernel.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace esv::sim {

// ---------------------------------------------------------------------------
// Task

Task Task::promise_type::get_return_object() {
  return Task(Handle::from_promise(*this));
}

Task& Task::operator=(Task&& other) noexcept {
  if (this != &other) {
    if (handle_) handle_.destroy();
    handle_ = other.handle_;
    other.handle_ = {};
  }
  return *this;
}

Task::~Task() {
  if (handle_) handle_.destroy();
}

// ---------------------------------------------------------------------------
// Process

Process::Process(Simulation& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

ThreadProcess::ThreadProcess(Simulation& sim, std::string name, Task task)
    : Process(sim, std::move(name)), handle_(task.release()) {
  if (!handle_) throw std::invalid_argument("spawn: empty task");
  handle_.promise().process = this;
}

ThreadProcess::~ThreadProcess() {
  if (handle_) handle_.destroy();
}

void ThreadProcess::execute() {
  handle_.resume();
  if (handle_.done()) {
    state_ = State::kTerminated;
    if (handle_.promise().exception) {
      std::exception_ptr e = handle_.promise().exception;
      handle_.promise().exception = nullptr;
      std::rethrow_exception(e);
    }
  }
}

MethodProcess::MethodProcess(Simulation& sim, std::string name,
                             std::function<void()> fn)
    : Process(sim, std::move(name)), fn_(std::move(fn)) {}

void MethodProcess::execute() {
  state_ = State::kWaiting;  // methods always return to waiting-on-sensitivity
  fn_();
}

// ---------------------------------------------------------------------------
// Event

Event::Event(Simulation& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

Event::~Event() = default;

void Event::add_waiter(Process& p) {
  waiters_.push_back(Waiter{&p, p.epoch()});
}

void Event::add_static_method(MethodProcess& m) { static_methods_.push_back(&m); }

void Event::fire() {
  pending_ = Pending::kNone;
  // Swap out the waiter list first: a woken process may immediately wait on
  // this event again.
  std::vector<Waiter> waiters;
  waiters.swap(waiters_);
  for (const Waiter& w : waiters) sim_.wake(*w.process, w.epoch);
  for (MethodProcess* m : static_methods_) sim_.make_runnable(*m);
}

void Event::notify() { fire(); }

void Event::notify_delta() {
  if (pending_ == Pending::kDelta) return;
  // A delta notification overrides a pending timed notification.
  ++pending_seq_;
  pending_ = Pending::kDelta;
  sim_.add_delta_event(*this);
}

void Event::notify(Time delay) {
  if (delay.is_zero()) {
    notify_delta();
    return;
  }
  const Time when = sim_.now() + delay;
  if (pending_ == Pending::kDelta) return;              // delta wins
  if (pending_ == Pending::kTimed && pending_time_ <= when) return;  // earlier wins
  ++pending_seq_;
  pending_ = Pending::kTimed;
  pending_time_ = when;
  sim_.schedule_timed_event(*this, delay, pending_seq_);
}

void Event::cancel() {
  // Invalidate anything already queued; the queue entries check pending_seq_.
  ++pending_seq_;
  pending_ = Pending::kNone;
}

// ---------------------------------------------------------------------------
// Awaiters

void EventAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  Process* p = h.promise().process;
  p->state_ = Process::State::kWaiting;
  event.add_waiter(*p);
}

void AnyEventAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  Process* p = h.promise().process;
  p->state_ = Process::State::kWaiting;
  // All events record the same epoch; the first to fire wakes the process and
  // bumps the epoch, so the remaining registrations become stale no-ops.
  for (Event* e : events) e->add_waiter(*p);
}

void DelayAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  Process* p = h.promise().process;
  p->state_ = Process::State::kWaiting;
  sim.schedule_timed_wake(*p, delay);
}

void DeltaAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  Process* p = h.promise().process;
  p->state_ = Process::State::kWaiting;
  sim.schedule_delta_wake(*p);
}

// ---------------------------------------------------------------------------
// Simulation

Simulation::Simulation() = default;
Simulation::~Simulation() = default;

ThreadProcess& Simulation::spawn(std::string name, Task task) {
  auto process =
      std::make_unique<ThreadProcess>(*this, std::move(name), std::move(task));
  ThreadProcess& ref = *process;
  processes_.push_back(std::move(process));
  make_runnable(ref);
  return ref;
}

MethodProcess& Simulation::create_method(std::string name,
                                         std::function<void()> fn,
                                         std::vector<Event*> sensitivity,
                                         bool run_at_start) {
  auto process =
      std::make_unique<MethodProcess>(*this, std::move(name), std::move(fn));
  MethodProcess& ref = *process;
  processes_.push_back(std::move(process));
  for (Event* e : sensitivity) e->add_static_method(ref);
  if (run_at_start) make_runnable(ref);
  return ref;
}

void Simulation::make_runnable(Process& p) {
  if (p.state_ == Process::State::kTerminated || p.in_runnable_) return;
  p.state_ = Process::State::kReady;
  p.in_runnable_ = true;
  runnable_.push_back(&p);
}

void Simulation::wake(Process& p, std::uint64_t epoch) {
  if (p.epoch() != epoch) return;  // stale wake-up (wait-any, cancelled wait)
  ++p.epoch_;
  make_runnable(p);
}

void Simulation::schedule_timed_wake(Process& p, Time delay) {
  TimedEntry entry;
  entry.time = now_ + delay;
  entry.seq = ++timed_seq_;
  entry.process = &p;
  entry.process_epoch = p.epoch();
  timed_queue_.push(entry);
}

void Simulation::schedule_delta_wake(Process& p) {
  delta_wakes_.push_back(DeltaWake{&p, p.epoch()});
}

void Simulation::schedule_timed_event(Event& e, Time delay,
                                      std::uint64_t event_seq) {
  TimedEntry entry;
  entry.time = now_ + delay;
  entry.seq = ++timed_seq_;
  entry.event = &e;
  entry.event_seq = event_seq;
  timed_queue_.push(entry);
}

void Simulation::add_delta_event(Event& e) { delta_events_.push_back(&e); }

void Simulation::request_update(Channel& channel) {
  update_queue_.push_back(&channel);
}

void Simulation::run_evaluate_phase() {
  while (!runnable_.empty()) {
    Process* p = runnable_.front();
    runnable_.pop_front();
    p->in_runnable_ = false;
    if (p->state_ == Process::State::kTerminated) continue;
    ++process_runs_;
    p->execute();
  }
}

void Simulation::run_update_phase() {
  std::vector<Channel*> updates;
  updates.swap(update_queue_);
  for (Channel* c : updates) c->update();
}

bool Simulation::run_delta_phase() {
  std::vector<Event*> events;
  events.swap(delta_events_);
  std::vector<DeltaWake> wakes;
  wakes.swap(delta_wakes_);
  for (Event* e : events) {
    // The notification may have been cancelled or superseded after queueing.
    if (e->pending_ == Event::Pending::kDelta) e->fire();
  }
  for (const DeltaWake& w : wakes) wake(*w.process, w.epoch);
  return !runnable_.empty();
}

Time Simulation::run(Time until) {
  const std::uint64_t deltas_before = delta_count_;
  const std::uint64_t runs_before = process_runs_;
  const Time end = run_loop(until);
  if (metrics_ != nullptr) {
    metrics_->counter("sim.delta_cycles").add(delta_count_ - deltas_before);
    metrics_->counter("sim.process_runs").add(process_runs_ - runs_before);
  }
  return end;
}

Time Simulation::run_loop(Time until) {
  while (!stop_requested_) {
    // One delta cycle: evaluate, update, delta notifications.
    if (!runnable_.empty()) {
      ++delta_count_;
      run_evaluate_phase();
      run_update_phase();
      if (run_delta_phase()) continue;
    } else {
      run_update_phase();
      if (run_delta_phase()) continue;
    }

    // sc_stop() during the delta cycle: exit before advancing time.
    if (stop_requested_) break;

    // Nothing runnable at the current time: advance to the next timed entry.
    bool advanced = false;
    while (!timed_queue_.empty()) {
      TimedEntry entry = timed_queue_.top();
      if (entry.time > until) return now_ = until;
      timed_queue_.pop();
      // Drop stale entries (superseded event notifications, woken processes).
      if (entry.event != nullptr) {
        if (entry.event->pending_ != Event::Pending::kTimed ||
            entry.event->pending_seq_ != entry.event_seq) {
          continue;
        }
      } else if (entry.process->epoch() != entry.process_epoch) {
        continue;
      }
      now_ = entry.time;
      if (entry.event != nullptr) {
        entry.event->fire();
      } else {
        wake(*entry.process, entry.process_epoch);
      }
      advanced = true;
      // Also fire everything else scheduled for the same instant.
      while (!timed_queue_.empty() && timed_queue_.top().time == now_) {
        TimedEntry next = timed_queue_.top();
        timed_queue_.pop();
        if (next.event != nullptr) {
          if (next.event->pending_ == Event::Pending::kTimed &&
              next.event->pending_seq_ == next.event_seq) {
            next.event->fire();
          }
        } else if (next.process->epoch() == next.process_epoch) {
          wake(*next.process, next.process_epoch);
        }
      }
      break;
    }
    if (!advanced && runnable_.empty()) break;  // starvation: simulation done
  }
  return now_;
}

}  // namespace esv::sim
