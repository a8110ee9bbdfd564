#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "chaos/chaos.hpp"
#include "dist/broker.hpp"
#include "serve/protocol.hpp"

namespace esv::serve {

namespace {

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

int exit_code_of(const campaign::CampaignReport& report) {
  // Mirrors esv-verify's campaign exit mapping: 3 for a structured abort,
  // 1 for any violated or errored seed, 0 otherwise.
  if (report.deadline_exceeded) return 3;
  return (report.any_violated() || report.error_seeds != 0) ? 1 : 0;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.socket_path.empty()) {
    throw std::runtime_error("serve: socket_path is required");
  }
  if (options_.concurrency == 0) options_.concurrency = 1;

  // Pre-register every metric so the registry map never mutates after
  // construction (snapshots taken while the loop runs stay race-free).
  metrics_.counter("serve.jobs");
  metrics_.counter("serve.cache_hits");
  metrics_.counter("serve.cache_misses");
  metrics_.counter("serve.rejections");
  metrics_.counter("serve.completed");
  metrics_.counter("serve.cancelled");
  metrics_.counter("serve.journal_errors");
  metrics_.counter("serve.compactions");
  metrics_.counter("serve.compaction_errors");
  metrics_.counter("serve.disconnects_slow");
  metrics_.counter("serve.disconnects_idle");
  metrics_.histogram("serve.queue_depth");

  cache_.set_max_entries(options_.cache_max_entries);

  if (!options_.journal_path.empty()) {
    const RecoveredServe recovered = recover_serve(options_.journal_path);
    if (recovered.header_version != 0 &&
        recovered.header_version != kServeJournalVersion) {
      // Refuse before the resume writer would truncate the file: a v1
      // journal's digests (pre-fix FNV-1a) no longer match any key this
      // build computes, and the file is the operator's data.
      throw std::runtime_error(
          "serve: journal " + options_.journal_path +
          " was written by an older esv version (serve journal format v" +
          std::to_string(recovered.header_version) +
          ", this build writes v" + std::to_string(kServeJournalVersion) +
          "; the content-digest algorithm changed) — move it aside to "
          "start fresh");
    }
    if (!recovered.retired_mode.empty()) {
      // Same refusal for an acked job in a retired monitor mode: this build
      // cannot run it, and truncating it away would break the ack.
      throw std::runtime_error("serve: journal " + options_.journal_path +
                               " holds " + recovered.retired_mode +
                               " — move it aside to start fresh");
    }
    journal_ = std::make_unique<ServeJournal>(
        options_.journal_path, options_.journal_sync,
        recovered.header_valid ? recovered.valid_bytes : 0);
    next_job_id_ = recovered.next_job_id;
    for (const RecoveredServe::CompletedJob& done : recovered.completed) {
      if (!done.cacheable) continue;
      cache_.insert(done.key,
                    CachedResult{done.report_json, done.exit_code, done.job});
    }
    // Accepted-and-acked jobs survive the restart: re-queue them in
    // acceptance order, detached from any client (their results land in
    // the journal and cache; a status frame shows them as queued).
    for (const RecoveredServe::PendingJob& pending : recovered.pending) {
      auto job = std::make_unique<Job>();
      job->id = pending.job;
      job->tenant = pending.tenant;
      job->key = pending.key;
      job->config = pending.config;
      job->cancel = std::make_shared<std::atomic<bool>>(false);
      job->total_seeds =
          pending.config.seed_hi - pending.config.seed_lo + 1;
      const std::uint64_t id = job->id;
      jobs_.emplace(id, std::move(job));
      enqueue(id);
    }
  }

  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    throw std::runtime_error("serve: cannot create self-pipe");
  }
  pipe_rd_ = fds[0];
  pipe_wr_ = fds[1];
  ::fcntl(pipe_rd_, F_SETFL, O_NONBLOCK);
  ::fcntl(pipe_wr_, F_SETFL, O_NONBLOCK);

  open_socket();
}

Server::~Server() {
  for (auto& [id, job] : jobs_) {
    if (job->thread.joinable()) {
      job->cancel->store(true);
      job->thread.join();
    }
  }
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (pipe_rd_ >= 0) ::close(pipe_rd_);
  if (pipe_wr_ >= 0) ::close(pipe_wr_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

void Server::open_socket() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " +
                             options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: cannot create socket");
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("serve: cannot bind " + options_.socket_path +
                             ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error("serve: cannot listen on " +
                             options_.socket_path);
  }
}

void Server::poke() {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(pipe_wr_, &byte, 1);
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  poke();
}

std::uint64_t Server::queue_depth() const { return queued_count_; }

obs::MetricsSnapshot Server::metrics_snapshot() const {
  return metrics_.snapshot();
}

std::uint64_t Server::cache_hits() const { return cache_.hits(); }
std::uint64_t Server::cache_size() const { return cache_.size(); }

void Server::run() {
  std::vector<pollfd> fds;
  // Snapshot map: fds[k + 2] polls the connection at conns_[fd_conn[k]].
  // The walk below must use this map, never conns_'s live order — a
  // close_conn() fired mid-walk (a write error on another connection)
  // punches fd=-1 holes, and new accepts grow conns_, so positional
  // alignment with the pre-poll fds list does not survive the iteration.
  std::vector<std::size_t> fd_conn;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    dispatch();
    maybe_compact();

    fds.clear();
    fd_conn.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({pipe_rd_, POLLIN, 0});
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      short events = conns_[i].close_after_flush ? 0 : POLLIN;
      if (conns_[i].outbox.size() > conns_[i].outbox_off) events |= POLLOUT;
      fds.push_back({conns_[i].fd, events, 0});
      fd_conn.push_back(i);
    }
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
      break;
    }

    if ((fds[1].revents & POLLIN) != 0) {
      char buffer[256];
      while (::read(pipe_rd_, buffer, sizeof(buffer)) > 0) {
      }
    }
    // Walk the pre-poll snapshot. The fd equality check skips entries
    // whose connection a handler closed earlier in this same walk
    // (close_conn marks fd=-1). Slot recycling cannot alias a stale
    // entry onto a new connection because accept_clients() — the only
    // writer of Conn::fd — runs strictly after the walk.
    for (std::size_t k = 0; k < fd_conn.size(); ++k) {
      const pollfd& entry = fds[k + 2];
      const std::size_t index = fd_conn[k];
      if (conns_[index].fd != entry.fd) continue;
      if ((entry.revents & POLLOUT) != 0) {
        flush_conn(index);
        if (conns_[index].fd != entry.fd) continue;
      }
      if ((entry.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (conns_[index].close_after_flush) {
          // Not reading this connection any more; a HUP/ERR while we
          // drain its last frames just ends it early.
          if ((entry.revents & (POLLHUP | POLLERR)) != 0) close_conn(index);
          continue;
        }
        read_client(index);
      }
    }
    if ((fds[0].revents & POLLIN) != 0) accept_clients();
    sweep_timeouts();
    drain_events();
  }

  // Graceful stop: cancel running jobs cooperatively and join. The jobs
  // stay unresolved in the journal (no cancelled record — the client did
  // not cancel them), so the next start re-queues and re-runs them.
  for (auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) job->cancel->store(true);
  }
  for (auto& [id, job] : jobs_) {
    if (job->thread.joinable()) job->thread.join();
  }
  // One final drain so jobs that finished cleanly during the stop still
  // journal their completed records and stream their reports, then push
  // whatever the outboxes hold to clients that are still reading.
  drain_events();
  flush_outboxes_blocking();
  if (journal_ != nullptr) journal_->close();
}

void Server::accept_clients() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    const chaos::Injection inject = chaos::at(chaos::Point::kServeAccept);
    if (inject.action == chaos::Action::kDrop) {
      ::close(fd);
      continue;
    }
    if (inject.action == chaos::Action::kDelay) sleep_ms(inject.arg);
    std::size_t slot = conns_.size();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) {
        slot = i;
        break;
      }
    }
    if (slot == conns_.size()) conns_.emplace_back();
    const auto now = std::chrono::steady_clock::now();
    conns_[slot].fd = fd;
    conns_[slot].reader = dist::FrameReader();
    conns_[slot].outbox.clear();
    conns_[slot].outbox_off = 0;
    conns_[slot].close_after_flush = false;
    conns_[slot].last_read = now;
    conns_[slot].last_write_progress = now;
  }
}

void Server::close_conn(std::size_t index) {
  if (conns_[index].fd >= 0) ::close(conns_[index].fd);
  conns_[index].fd = -1;
  conns_[index].outbox.clear();
  conns_[index].outbox_off = 0;
  conns_[index].close_after_flush = false;
  for (auto& [id, job] : jobs_) {
    if (job->conn == static_cast<int>(index)) job->conn = -1;
  }
}

void Server::read_client(std::size_t index) {
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t got = ::recv(conns_[index].fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      conns_[index].reader.feed(buffer, static_cast<std::size_t>(got));
      conns_[index].last_read = std::chrono::steady_clock::now();
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got < 0 && errno == EINTR) continue;
    close_conn(index);
    return;
  }
  // A corrupt frame (bad CRC, insane length) is this client's problem, not
  // the daemon's: reject what can still be answered and drop the
  // connection — the stream has no recoverable framing after that point.
  try {
    for (;;) {
      if (options_.max_request_bytes != 0) {
        const auto declared = conns_[index].reader.pending_payload();
        if (declared && *declared > options_.max_request_bytes) {
          send_rejected(index, "request of " + std::to_string(*declared) +
                                   " bytes exceeds the request limit (" +
                                   std::to_string(options_.max_request_bytes) +
                                   " bytes)");
          // The oversized payload is not buffered, so the stream cannot be
          // re-synchronized: flush the rejection, then close. The flush
          // below closes immediately when the rejection already drained
          // inside send_rejected (the common case).
          conns_[index].close_after_flush = true;
          flush_conn(index);
          return;
        }
      }
      auto payload = conns_[index].reader.next();
      if (!payload) break;
      const chaos::Injection inject = chaos::at(chaos::Point::kServeRx);
      if (inject.action == chaos::Action::kDrop) continue;
      if (inject.action == chaos::Action::kDelay) sleep_ms(inject.arg);
      handle_frame(index, *payload);
      if (conns_[index].fd < 0) return;  // handler closed the connection
      if (conns_[index].close_after_flush) return;
    }
  } catch (const dist::WireError&) {
    close_conn(index);
  }
}

void Server::handle_frame(std::size_t conn_index, const std::string& payload) {
  try {
    const dist::Json json = dist::Json::parse(payload);
    switch (frame_kind(json)) {
      case FrameKind::kSubmit:
        handle_submit(conn_index, json);
        return;
      case FrameKind::kStatus:
        handle_status(conn_index);
        return;
      case FrameKind::kCancel:
        handle_cancel(conn_index, json);
        return;
      case FrameKind::kShutdown:
        send_to_conn(static_cast<int>(conn_index), make_shutdown_ack());
        request_stop();
        return;
      default:
        throw dist::WireError("serve: unexpected client frame");
    }
  } catch (const dist::WireError& e) {
    send_rejected(conn_index, e.what());
  }
}

void Server::send_rejected(std::size_t conn_index,
                           const std::string& reason) {
  metrics_.counter("serve.rejections").add();
  send_to_conn(static_cast<int>(conn_index),
               make_rejected(reason, queued_count_));
}

void Server::handle_submit(std::size_t conn_index, const dist::Json& json) {
  const int conn = static_cast<int>(conn_index);
  if (json.u64_or("v", kServeProtocolVersion) != kServeProtocolVersion) {
    send_rejected(conn_index, "unsupported protocol version");
    return;
  }
  campaign::CampaignConfig config;
  try {
    config = dist::config_from_json(json.at("config"));
    apply_campaign_shape(json, config);
  } catch (const dist::WireError& e) {
    send_rejected(conn_index, std::string("malformed config: ") + e.what());
    return;
  }
  const std::string tenant = json.string_or("tenant", "default");
  const std::string key = job_key(config).combined();

  // Warm path: identical content already verified — answer from the cache
  // without queueing (cache-hit replies don't consume queue capacity).
  if (config_cacheable(config)) {
    if (const auto cached = cache_.lookup(key)) {
      metrics_.counter("serve.jobs").add();
      metrics_.counter("serve.cache_hits").add();
      const std::uint64_t id = next_job_id_++;
      send_to_conn(conn, make_accepted(id, key, /*cached=*/true,
                                       queued_count_));
      send_to_conn(conn, make_report_frame(id, /*cached=*/true,
                                           cached->exit_code,
                                           cached->report_json));
      return;
    }
    metrics_.counter("serve.cache_misses").add();
  }

  // Bounded queue: explicit backpressure, never a silent drop.
  if (queued_count_ >= options_.queue_limit) {
    send_rejected(conn_index, "queue full (limit " +
                                  std::to_string(options_.queue_limit) + ")");
    return;
  }
  // Per-tenant quota: one tenant's backlog consumes its own allowance, not
  // the shared queue — the rejection names the tenant so the client knows
  // which budget it blew.
  if (options_.tenant_max_queued != 0) {
    const auto it = queues_.find(tenant);
    if (it != queues_.end() &&
        it->second.size() >= options_.tenant_max_queued) {
      send_rejected(conn_index,
                    "tenant \"" + tenant + "\" queue full (limit " +
                        std::to_string(options_.tenant_max_queued) + ")");
      return;
    }
  }

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->tenant = tenant;
  job->key = key;
  job->config = std::move(config);
  job->conn = conn;
  job->cancel = std::make_shared<std::atomic<bool>>(false);
  job->total_seeds = job->config.seed_hi - job->config.seed_lo + 1;

  // Durability contract: journal the acceptance BEFORE acking it, so an
  // accepted-and-acked job can never be lost to a daemon kill. A journal
  // that cannot persist the job means the job is not accepted.
  if (journal_ != nullptr) {
    try {
      journal_->append_accepted(job->id, job->tenant, job->key, job->config);
    } catch (const journal::JournalError& e) {
      send_rejected(conn_index, std::string("journal: ") + e.what());
      return;
    }
  }

  const std::uint64_t id = job->id;
  jobs_.emplace(id, std::move(job));
  enqueue(id);
  metrics_.counter("serve.jobs").add();
  metrics_.histogram("serve.queue_depth").record(queued_count_);
  send_to_conn(conn, make_accepted(id, key, /*cached=*/false, queued_count_));
}

void Server::enqueue(std::uint64_t job_id) {
  const Job& job = *jobs_.at(job_id);
  auto [it, inserted] = queues_.try_emplace(job.tenant);
  if (inserted) tenant_ring_.push_back(job.tenant);
  it->second.push_back(job_id);
  ++queued_count_;
}

Server::Job* Server::pick_next() {
  if (tenant_ring_.empty() || queued_count_ == 0) return nullptr;
  // Round-robin across tenants, FIFO within one: start after the tenant
  // served last, take the first non-empty queue.
  for (std::size_t step = 0; step < tenant_ring_.size(); ++step) {
    const std::size_t at = (ring_cursor_ + step) % tenant_ring_.size();
    std::deque<std::uint64_t>& queue = queues_.at(tenant_ring_[at]);
    if (queue.empty()) continue;
    // Inflight cap: a tenant at its concurrency quota keeps its place in
    // line (skipped, not rejected) while other tenants use the slot.
    if (options_.tenant_max_inflight != 0) {
      const auto running = running_by_tenant_.find(tenant_ring_[at]);
      if (running != running_by_tenant_.end() &&
          running->second >= options_.tenant_max_inflight) {
        continue;
      }
    }
    const std::uint64_t id = queue.front();
    queue.pop_front();
    --queued_count_;
    ring_cursor_ = at + 1;
    return jobs_.at(id).get();
  }
  return nullptr;
}

void Server::dispatch() {
  while (running_count_ < options_.concurrency) {
    Job* job = pick_next();
    if (job == nullptr) return;
    start_job(*job);
  }
}

void Server::start_job(Job& job) {
  job.state = JobState::kRunning;
  ++running_count_;
  ++running_by_tenant_[job.tenant];
  job.config.cancel = job.cancel;
  job.config.on_result = [this, id = job.id](const campaign::SeedResult&) {
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back({Event::Kind::kProgress, id, 0});
    poke();
  };
  job.thread = std::thread([this, &job] {
    try {
      job.report = job.config.workers > 0 ? dist::run_distributed(job.config)
                                          : campaign::run(job.config);
    } catch (const std::exception& e) {
      job.failure = e.what();
    }
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back({Event::Kind::kDone, job.id, 0});
    poke();
  });
}

void Server::drain_events() {
  std::vector<Event> batch;
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    batch.swap(events_);
  }
  // Coalesce progress per job: one frame per drain, carrying the count of
  // progress events seen so far.
  std::map<std::uint64_t, std::uint64_t> progress;
  for (const Event& event : batch) {
    if (event.kind == Event::Kind::kProgress) ++progress[event.job];
  }
  for (const auto& [id, increment] : progress) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    Job& job = *it->second;
    job.progress_done += increment;
    if (job.state == JobState::kRunning) {
      send_to_conn(job.conn,
                   make_progress(id, job.progress_done, job.total_seeds));
    }
  }
  for (const Event& event : batch) {
    if (event.kind != Event::Kind::kDone) continue;
    const auto it = jobs_.find(event.job);
    if (it == jobs_.end()) continue;
    finish_job(*it->second);
    // Terminal jobs leave the map once their last frame is out: the
    // journal and cache already hold everything a replay needs, so a
    // long-lived daemon's memory does not grow with every job it ever
    // served (finish_job joined the executor thread).
    jobs_.erase(it);
  }
}

void Server::note_journal_error(const std::string& what) {
  journal_degraded_ = true;
  metrics_.counter("serve.journal_errors").add();
  std::cerr << "esv-serve: journal: " << what << "\n";
}

bool Server::journal_completed(const Job& job, bool cacheable, int exit_code,
                               const std::string& report_json) {
  if (journal_ == nullptr) return true;
  try {
    journal_->append_completed(job.id, job.key, cacheable, exit_code,
                               report_json);
    return true;
  } catch (const journal::JournalError& e) {
    note_journal_error(e.what());
    return false;
  }
}

void Server::finish_job(Job& job) {
  if (job.thread.joinable()) job.thread.join();
  if (running_count_ > 0) --running_count_;
  const auto running = running_by_tenant_.find(job.tenant);
  if (running != running_by_tenant_.end() && running->second > 0) {
    --running->second;
  }

  if (!job.failure.empty()) {
    // The campaign never started (config/compile/spec error). Exit 2,
    // like esv-verify's usage/config errors; never cached.
    std::string error_json = "{\"error\":";
    error_json += dist::json_string(job.failure);
    error_json += "}";
    const bool durable =
        journal_completed(job, /*cacheable=*/false, 2, error_json);
    job.state = JobState::kDone;
    metrics_.counter("serve.completed").add();
    send_to_conn(job.conn, make_report_frame(job.id, /*cached=*/false, 2,
                                             error_json, durable));
    return;
  }

  if (job.report.cancelled) {
    if (job.client_cancelled) {
      // Client-cancelled: resolve the job in the journal and send the
      // terminal frame. A failed append leaves the job pending, so the
      // next start re-runs a campaign the client no longer wants — count
      // it as journal degradation and carry on.
      if (journal_ != nullptr) {
        try {
          journal_->append_cancelled(job.id);
        } catch (const journal::JournalError& e) {
          note_journal_error(e.what());
        }
      }
      metrics_.counter("serve.cancelled").add();
      send_to_conn(job.conn, make_cancelled(job.id));
    }
    // Shutdown-cancelled jobs stay unresolved on purpose: the next start
    // re-queues and re-runs them.
    job.state = JobState::kCancelled;
    return;
  }

  const std::string report_json = job.report.to_json(/*include_timing=*/false);
  const int exit_code = exit_code_of(job.report);
  bool cacheable = config_cacheable(job.config) && !job.report.degraded &&
                   !job.report.deadline_exceeded;
  // Durability contract: journal the completion BEFORE streaming it, so a
  // restarted daemon serves byte-identical reports for completed jobs.
  // When the append fails the contract is void for this job: skip the
  // cache (a cached reply would claim bytes the journal cannot replay)
  // and tell the client via the frame's durable flag.
  const bool durable = journal_completed(job, cacheable, exit_code,
                                         report_json);
  if (!durable) cacheable = false;
  if (cacheable) {
    cache_.insert(job.key, CachedResult{report_json, exit_code, job.id});
  }
  job.state = JobState::kDone;
  metrics_.counter("serve.completed").add();
  send_to_conn(job.conn,
               make_report_frame(job.id, /*cached=*/false, exit_code,
                                 report_json, durable));
}

void Server::handle_cancel(std::size_t conn_index, const dist::Json& json) {
  const int conn = static_cast<int>(conn_index);
  const std::uint64_t id = json.u64_or("job", 0);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->state == JobState::kDone ||
      it->second->state == JobState::kCancelled) {
    send_rejected(conn_index, "unknown or finished job " +
                                  std::to_string(id));
    return;
  }
  Job& job = *it->second;
  job.client_cancelled = true;
  if (job.state == JobState::kQueued) {
    std::deque<std::uint64_t>& queue = queues_.at(job.tenant);
    queue.erase(std::remove(queue.begin(), queue.end(), id), queue.end());
    --queued_count_;
    job.state = JobState::kCancelled;
    if (journal_ != nullptr) {
      try {
        journal_->append_cancelled(id);
      } catch (const journal::JournalError& e) {
        note_journal_error(e.what());
      }
    }
    metrics_.counter("serve.cancelled").add();
    const int submitter = job.conn;
    send_to_conn(submitter, make_cancelled(id));
    if (submitter != conn) send_to_conn(conn, make_cancelled(id));
    jobs_.erase(it);  // terminal: never ran, nothing left to track
    return;
  }
  // Running: cooperative — the campaign stops claiming seeds and the
  // terminal cancelled frame goes to the submitter from finish_job. Ack
  // the canceller now (unless it IS the submitter, which gets the
  // terminal frame).
  job.cancel->store(true);
  if (job.conn != conn) send_to_conn(conn, make_cancelled(id));
}

void Server::handle_status(std::size_t conn_index) {
  std::string out = "{\"type\":\"status_reply\"";
  out += ",\"queue_depth\":" + std::to_string(queued_count_);
  out += ",\"running\":" + std::to_string(running_count_);
  out += ",\"completed\":" +
         std::to_string(metrics_.counter("serve.completed").value());
  out += ",\"cancelled\":" +
         std::to_string(metrics_.counter("serve.cancelled").value());
  out += ",\"rejections\":" +
         std::to_string(metrics_.counter("serve.rejections").value());
  out += journal_degraded_ ? ",\"journal_degraded\":true"
                           : ",\"journal_degraded\":false";
  out += ",\"journal_errors\":" +
         std::to_string(metrics_.counter("serve.journal_errors").value());
  out += ",\"journal_bytes\":" + std::to_string(journal_tail_bytes());
  out += ",\"journal_snapshot_bytes\":" +
         std::to_string(journal_snapshot_bytes());
  out += ",\"compactions\":" +
         std::to_string(metrics_.counter("serve.compactions").value());
  out += ",\"cache\":{\"entries\":" + std::to_string(cache_.size());
  out += ",\"hits\":" + std::to_string(cache_.hits());
  out += ",\"misses\":" + std::to_string(cache_.misses());
  out += ",\"evictions\":" + std::to_string(cache_.evictions());
  out += "},\"jobs\":[";
  bool first = true;
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::kQueued && job->state != JobState::kRunning) {
      continue;
    }
    if (!first) out += ",";
    first = false;
    out += "{\"job\":" + std::to_string(id);
    out += ",\"tenant\":" + dist::json_string(job->tenant);
    out += job->state == JobState::kQueued ? ",\"state\":\"queued\"}"
                                           : ",\"state\":\"running\"}";
  }
  out += "]}";
  send_to_conn(static_cast<int>(conn_index), out);
}

namespace {

/// Cap on buffered outbound bytes per connection. A reader this far behind
/// a report stream is not coming back; holding more would let one dead
/// client grow daemon memory without bound.
constexpr std::size_t kMaxOutboxBytes = 32u * 1024u * 1024u;

}  // namespace

void Server::send_to_conn(int conn_index, const std::string& payload) {
  if (conn_index < 0 ||
      static_cast<std::size_t>(conn_index) >= conns_.size()) {
    return;
  }
  const std::size_t index = static_cast<std::size_t>(conn_index);
  Conn& conn = conns_[index];
  if (conn.fd < 0) return;
  std::string frame;
  try {
    frame = dist::encode_frame(payload);
  } catch (const dist::WireError&) {
    close_conn(index);
    return;
  }
  if (conn.outbox.size() - conn.outbox_off + frame.size() > kMaxOutboxBytes) {
    metrics_.counter("serve.disconnects_slow").add();
    close_conn(index);
    return;
  }
  if (conn.outbox.empty()) conn.last_write_progress =
      std::chrono::steady_clock::now();
  conn.outbox.append(frame);
  // Opportunistic drain: the common case (a responsive client) completes
  // here and never pays for a POLLOUT round trip.
  flush_conn(index);
}

void Server::flush_conn(std::size_t index) {
  Conn& conn = conns_[index];
  if (conn.fd < 0) return;
  while (conn.outbox_off < conn.outbox.size()) {
    const ssize_t sent =
        ::send(conn.fd, conn.outbox.data() + conn.outbox_off,
               conn.outbox.size() - conn.outbox_off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT later
      close_conn(index);
      return;
    }
    conn.outbox_off += static_cast<std::size_t>(sent);
    conn.last_write_progress = std::chrono::steady_clock::now();
  }
  conn.outbox.clear();
  conn.outbox_off = 0;
  if (conn.close_after_flush) close_conn(index);
}

void Server::sweep_timeouts() {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    if (conn.fd < 0) continue;
    if (conn.outbox_off < conn.outbox.size()) {
      const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - conn.last_write_progress);
      if (stalled.count() >= 0 &&
          static_cast<std::uint64_t>(stalled.count()) >=
              options_.write_timeout_ms) {
        metrics_.counter("serve.disconnects_slow").add();
        close_conn(i);
      }
      continue;
    }
    if (options_.idle_timeout_ms == 0 || conn.close_after_flush) continue;
    bool attached = false;
    for (const auto& [id, job] : jobs_) {
      if (job->conn == static_cast<int>(i)) {
        attached = true;
        break;
      }
    }
    if (attached) continue;
    const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
        now - conn.last_read);
    if (idle.count() >= 0 && static_cast<std::uint64_t>(idle.count()) >=
                                 options_.idle_timeout_ms) {
      metrics_.counter("serve.disconnects_idle").add();
      close_conn(i);
    }
  }
}

void Server::flush_outboxes_blocking() {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.write_timeout_ms);
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_conn;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      flush_conn(i);
      if (conns_[i].fd < 0) continue;
      if (conns_[i].outbox_off >= conns_[i].outbox.size()) continue;
      fds.push_back({conns_[i].fd, POLLOUT, 0});
      fd_conn.push_back(i);
    }
    if (fds.empty()) return;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;  // stalled readers forfeit their frames
    const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    const int timeout =
        static_cast<int>(std::min<long long>(budget.count(), 100));
    if (::poll(fds.data(), fds.size(), timeout) < 0 && errno != EINTR) {
      return;
    }
  }
}

void Server::maybe_compact() {
  if (journal_ == nullptr || options_.journal_max_bytes == 0) return;
  if (journal_->append_disabled()) return;
  const std::uint64_t tail = journal_->tail_bytes();
  if (tail < options_.journal_max_bytes || tail < compact_after_bytes_) {
    return;
  }
  CompactionState live;
  live.next_job_id = next_job_id_;
  // jobs_ is keyed by id and ids are assigned in acceptance order, so this
  // walk preserves the FIFO the journal promises. Running jobs are still
  // unresolved (accepted, not completed) and stay in the snapshot.
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::kQueued && job->state != JobState::kRunning) {
      continue;
    }
    RecoveredServe::PendingJob pending;
    pending.job = id;
    pending.tenant = job->tenant;
    pending.key = job->key;
    pending.config = job->config;
    live.pending.push_back(std::move(pending));
  }
  cache_.for_each([&live](const std::string& key, const CachedResult& result) {
    RecoveredServe::CompletedJob done;
    done.job = result.job;
    done.key = key;
    done.cacheable = true;
    done.exit_code = result.exit_code;
    done.report_json = result.report_json;
    live.completed.push_back(std::move(done));
  });
  try {
    journal_->compact(live);
    metrics_.counter("serve.compactions").add();
    compact_after_bytes_ = 0;
  } catch (const journal::JournalError& e) {
    metrics_.counter("serve.compaction_errors").add();
    note_journal_error(e.what());
    // Degrade, don't die: the tail still holds everything (a pre-swap
    // failure) or the snapshot does (a tail-restart failure, which also
    // latched append_disabled). Retry only after the tail grows further so
    // a persistent ENOSPC cannot spin the loop.
    compact_after_bytes_ =
        tail + std::max<std::uint64_t>(options_.journal_max_bytes / 4, 4096);
  }
}

}  // namespace esv::serve
