#include "fd/detector_bank.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/instruments.hpp"

namespace fdqos::fd {

void DetectorBank::Counters::add(const Counters& other) {
  predictor_updates += other.predictor_updates;
  lane_updates += other.lane_updates;
  coalesced_timers += other.coalesced_timers;
  timer_events += other.timer_events;
  dispatch_errors += other.dispatch_errors;
}

DetectorBank::DetectorBank(sim::Simulator& simulator, Config config)
    : simulator_(simulator), config_(std::move(config)) {
  FDQOS_REQUIRE(config_.eta > Duration::zero());
}

std::size_t DetectorBank::add_group(
    std::unique_ptr<forecast::Predictor> predictor) {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(predictor != nullptr);
  groups_.push_back(
      std::make_unique<forecast::SharedPredictor>(std::move(predictor)));
  return groups_.size() - 1;
}

std::size_t DetectorBank::add_lane(std::string name, std::size_t group,
                                   std::unique_ptr<SafetyMargin> margin) {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(group < groups_.size());
  FDQOS_REQUIRE(margin != nullptr);
  if (name.empty()) {
    name = groups_[group]->name() + "+" + margin->name();
  }
  lane_names_.push_back(std::move(name));
  lane_group_.push_back(static_cast<std::uint32_t>(group));
  margins_.push_back(std::move(margin));
  freshness_index_.push_back(0);
  suspecting_.push_back(0);
  return margins_.size() - 1;
}

const std::string& DetectorBank::lane_name(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return lane_names_[lane];
}

bool DetectorBank::lane_suspecting(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return suspecting_[lane] != 0;
}

std::int64_t DetectorBank::lane_freshness_index(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  // Rows not yet folded count once their due for this lane has passed;
  // the newest such row carries the highest index.
  const TimePoint now = simulator_.now();
  for (std::size_t r = rows_; r-- > 0;) {
    if (dues_[row_offset(r) + lane] <= now) {
      return std::max(freshness_index_[lane],
                      first_row_ + static_cast<std::int64_t>(r));
    }
  }
  return freshness_index_[lane];
}

double DetectorBank::lane_delta_ms(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  if (observations_ == 0) return config_.cold_start_timeout.to_millis_double();
  const double delta =
      groups_[lane_group_[lane]]->predict() + margins_[lane]->margin();
  // A NaN/Inf forecast (a diverged estimator under adversarial delays)
  // would silently corrupt every subsequent τ — fail fast instead; the
  // chaos invariant harness leans on this to catch estimator divergence.
  FDQOS_ASSERT(std::isfinite(delta));
  // A (pathological) negative forecast would place τ before σ; clamp — a
  // heartbeat cannot arrive before it is sent.
  return delta > 0.0 ? delta : 0.0;
}

std::size_t DetectorBank::lane_group(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return lane_group_[lane];
}

const SafetyMargin& DetectorBank::lane_margin(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return *margins_[lane];
}

const forecast::Predictor& DetectorBank::group_predictor(
    std::size_t group) const {
  FDQOS_REQUIRE(group < groups_.size());
  return groups_[group]->underlying();
}

const forecast::SharedPredictor& DetectorBank::shared_predictor(
    std::size_t group) const {
  FDQOS_REQUIRE(group < groups_.size());
  return *groups_[group];
}

std::size_t DetectorBank::suspecting_count() const {
  std::size_t n = 0;
  for (const std::uint8_t s : suspecting_) n += s;
  return n;
}

void DetectorBank::set_timer_host(TimerHost* host, std::size_t member) {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(host != nullptr);
  host_ = host;
  host_member_ = member;
}

void DetectorBank::reserve_lanes(std::size_t lanes) {
  lane_names_.reserve(lanes);
  lane_group_.reserve(lanes);
  margins_.reserve(lanes);
  freshness_index_.reserve(lanes);
  suspecting_.reserve(lanes);
}

void DetectorBank::reserve_rows(std::size_t rows) {
  FDQOS_REQUIRE(width() > 0);
  if (rows > capacity_rows_) grow_rows(rows);
}

std::size_t DetectorBank::row_offset(std::size_t r) const {
  std::size_t slot = head_ + r;
  if (slot >= capacity_rows_) slot -= capacity_rows_;
  return slot * width();
}

void DetectorBank::grow_rows(std::size_t capacity) {
  // One flat buffer per bank: re-lay the rows in flight out from slot 0.
  std::vector<TimePoint> grown(capacity * width());
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(dues_.data() + row_offset(r), width(),
                grown.data() + r * width());
  }
  dues_.swap(grown);
  head_ = 0;
  capacity_rows_ = static_cast<std::uint32_t>(capacity);
}

void DetectorBank::start() {
  FDQOS_REQUIRE(width() > 0);
  started_ = true;
  // Cycle 0 begins at the epoch: compute every lane's τ_1 and arm the
  // shared timer, exactly as each legacy detector would for itself.
  begin_cycle(0);
}

void DetectorBank::begin_cycle(std::int64_t k) {
  const TimePoint now = simulator_.now();
  // Fold every oldest row whose dues have all passed: its live dues have
  // fired (an event strictly before now has run), and the dead ones can
  // only raise freshness_index_, which no later decision depends on.
  while (rows_ > 0) {
    const TimePoint* dues = dues_.data() + row_offset(0);
    if (std::any_of(dues, dues + width(),
                    [now](TimePoint due) { return due >= now; })) {
      break;
    }
    for (std::size_t lane = 0; lane < width(); ++lane) {
      freshness_index_[lane] = std::max(freshness_index_[lane], first_row_);
    }
    ++first_row_;
    if (++head_ == capacity_rows_) head_ = 0;
    --rows_;
  }

  // At the beginning of cycle k, compute τ_{k+1} = σ_{k+1} + δ_{k+1} for
  // every lane from current estimator state. The shared predictor's
  // forecast is memoized, so a group of N lanes pays one evaluation.
  const std::int64_t next = k + 1;
  const TimePoint sigma_next = config_.epoch + config_.eta * next;
  if (rows_ == 0) first_row_ = next;
  FDQOS_DASSERT(first_row_ + rows_ == next);
  if (rows_ == capacity_rows_) grow_rows(std::max<std::size_t>(2, 2 * rows_));
  TimePoint* dues = dues_.data() + row_offset(rows_++);
  TimePoint row_front = TimePoint::max();
  for (std::size_t lane = 0; lane < width(); ++lane) {
    // The check runs one tick *after* τ: a heartbeat arriving exactly at
    // the freshness point still counts as fresh (the interval [τ_i,
    // τ_{i+1}] is inspected only once both endpoints' arrivals have had
    // their chance).
    dues[lane] =
        sigma_next + Duration::from_millis_double(lane_delta_ms(lane)) +
        Duration::nanos(1);
    row_front = std::min(row_front, dues[lane]);
  }
  // Legacy schedules a cycle-begin and a freshness event per detector per
  // cycle; the bank schedules one tick, and each timer event it fires is
  // taken back in fire_due(). A row born dead (seq already ≥ next) arms
  // nothing; a live one moves the timer only if it undercuts the current
  // deadline (under delay spikes a later cycle's τ can precede an earlier
  // one's).
  counters_.coalesced_timers += 2 * width() - 1;
  if (next > max_seq_ &&
      row_front < (host_ != nullptr ? host_reported_ : armed_.time())) {
    arm_at(row_front);
  }

  // The next cycle begins at σ_{k+1}. A hosted bank schedules nothing: the
  // host's shared shard tick calls host_begin_cycle(next) at σ_{k+1}.
  if (host_ == nullptr) {
    simulator_.schedule_at(sigma_next, [this, next] { begin_cycle(next); });
  }
}

void DetectorBank::host_begin_cycle(std::int64_t k) {
  FDQOS_REQUIRE(host_ != nullptr);
  begin_cycle(k);
}

TimePoint DetectorBank::earliest_expiry() const {
  TimePoint front = TimePoint::max();
  const std::int64_t live_from = std::max(first_row_, max_seq_ + 1);
  for (std::int64_t i = live_from; i < first_row_ + rows_; ++i) {
    const TimePoint* dues =
        dues_.data() + row_offset(static_cast<std::size_t>(i - first_row_));
    for (std::size_t lane = 0; lane < width(); ++lane) {
      if (dues[lane] > fired_through_ && dues[lane] < front) {
        front = dues[lane];
      }
    }
  }
  return front;
}

void DetectorBank::arm_at(TimePoint front) {
  if (host_ != nullptr) {
    // Hosted: report instead of arming, at every change a solo bank would
    // move its event for — so the host never holds a stale deadline.
    if (host_reported_ == front) return;
    host_reported_ = front;
    host_->member_deadline_changed(host_member_, front);
    return;
  }
  // Solo: the armed event always sits at the earliest live due, so it
  // moves (in place) when a row undercuts it or a heartbeat kills its row,
  // is re-armed after it fires, and is cancelled only when no due is left.
  if (armed_.time() == front) return;
  if (front == TimePoint::max()) {
    armed_.cancel();
    return;
  }
  if (!simulator_.reschedule(armed_, front)) {
    armed_ = simulator_.schedule_at(front, [this] { timer_fired(); });
  }
}

void DetectorBank::timer_fired() { arm_at(fire_due(simulator_.now())); }

void DetectorBank::host_timer_check() {
  // The host consumed the live deadline it held for this member; report
  // the next one, as a solo bank re-arms after its event fires.
  const TimePoint front = fire_due(simulator_.now());
  host_reported_ = TimePoint::max();
  arm_at(front);
}

TimePoint DetectorBank::fire_due(TimePoint now) {
  // Dispatch every pending live due ≤ now in (cycle, lane) order — the
  // order in which the dues were pushed, and so the order independent
  // per-detector events at one instant would fire in — and return the
  // earliest live due still pending.
  const TimePoint since = fired_through_;
  fired_through_ = now;
  std::size_t fired = 0;
  TimePoint front = TimePoint::max();
  const std::int64_t live_from = std::max(first_row_, max_seq_ + 1);
  const std::int64_t end = first_row_ + rows_;
  for (std::int64_t i = live_from; i < end; ++i) {
    const std::size_t offset =
        row_offset(static_cast<std::size_t>(i - first_row_));
    for (std::size_t lane = 0; lane < width(); ++lane) {
      const TimePoint due = dues_[offset + lane];
      if (due > now) {
        front = std::min(front, due);
        continue;
      }
      if (due <= since) continue;
      // τ_i has passed: the lane's freshness window is now [τ_i, ...).
      freshness_index_[lane] = std::max(freshness_index_[lane], i);
      if (obs::enabled()) obs::instruments().fd_freshness_checks_total.inc();
      update_suspicion(lane);
      ++fired;
    }
  }
  if (fired > 0) {
    ++counters_.timer_events;
    --counters_.coalesced_timers;
  }
  return front;
}

void DetectorBank::handle_up(const net::Message& msg) {
  if (msg.type != net::MessageType::kHeartbeat ||
      msg.from != config_.monitored) {
    deliver_up(msg);
    return;
  }
  observe_heartbeat(msg.seq);
}

void DetectorBank::observe_heartbeat(std::int64_t seq) {
  const TimePoint sigma = config_.epoch + config_.eta * seq;
  double obs_ms = (simulator_.now() - sigma).to_millis_double();
  // On a real deployment residual clock skew can make a delay appear
  // negative; clamp (the paper's NTP assumption makes this ≈ 0).
  if (obs_ms < 0.0) obs_ms = 0.0;

  // Every margin sees the error of the forecast that was current for this
  // observation, so all lanes are fed before any shared predictor updates;
  // within one group the memoized predict() costs one real evaluation. A
  // lane that throws is contained (same contract as the mux fan-out).
  for (std::size_t lane = 0; lane < width(); ++lane) {
    const bool ok = runtime::invoke_isolated(lane_names_[lane].c_str(), [&] {
      margins_[lane]->observe(obs_ms, groups_[lane_group_[lane]]->predict());
    });
    if (!ok) ++counters_.dispatch_errors;
  }
  for (auto& group : groups_) group->observe(obs_ms);
  counters_.predictor_updates += groups_.size();
  counters_.lane_updates += width();
  ++observations_;

  // Heartbeat seq kills every live row with index ≤ seq; if one was in
  // flight, the timer moves to the next live due.
  const std::int64_t live_from = std::max(first_row_, max_seq_ + 1);
  const bool killed = seq >= live_from && live_from < first_row_ + rows_;
  if (seq > max_seq_) max_seq_ = seq;
  for (std::size_t lane = 0; lane < width(); ++lane) update_suspicion(lane);
  if (killed) arm_at(earliest_expiry());
}

void DetectorBank::update_suspicion(std::size_t lane) {
  // Trust at time t ∈ [τ_i, τ_{i+1}) iff some m_k with k ≥ i was received.
  const bool should_suspect = max_seq_ < freshness_index_[lane];
  if (should_suspect == (suspecting_[lane] != 0)) return;
  suspecting_[lane] = should_suspect ? 1 : 0;
  if (host_ != nullptr) host_->member_suspicion_changed(should_suspect);
  if (obs::enabled()) {
    auto& m = obs::instruments();
    (should_suspect ? m.fd_transitions_to_suspect : m.fd_transitions_to_trust)
        .inc();
    FDQOS_LOG_TRACE("%s -> %s at %.3f s (delta=%.2f ms)",
                    lane_names_[lane].c_str(),
                    should_suspect ? "suspect" : "trust",
                    simulator_.now().to_seconds_double(), lane_delta_ms(lane));
  }
  if (observer_) {
    const bool ok = runtime::invoke_isolated(lane_names_[lane].c_str(), [&] {
      observer_(lane, simulator_.now(), should_suspect);
    });
    if (!ok) ++counters_.dispatch_errors;
  }
}

}  // namespace fdqos::fd
