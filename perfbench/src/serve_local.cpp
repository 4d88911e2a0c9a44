// serve_local: the controller's path. An open loop into one in-process
// serve::PredictionService at closed-form fidelity (2-worker pool):
// single submits from the diurnal query stream (90% exact repeats),
// batch-64 predict_batch_results rounds, live sessions replaying
// held-out 2 Hz sample trails with predict_live revisions, and a
// swap_model coefficient write at a fixed cadence. Then two closed
// loops from 2 client threads: batch-64 rounds, which hand their cache
// misses to the pool, and single caller-thread predicts.
//
// Threads (at most 4 in every phase): in the open loop, a submit lane
// that also stamps completions, a lane for the synchronous entry points
// (batch, live, swap), and the 2 pool workers; in the closed loops, 2
// clients and the 2 workers.
#include <algorithm>
#include <atomic>
#include <future>
#include <utility>

#include "models/feature_batch.hpp"
#include "serve/query_stream.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace perfbench {

namespace {

// Offered open-loop rates: fixed, about a sixth of the capacity the seed
// code reaches on an uncontended 4-vCPU host, so that the loop still
// keeps up when a shared host leaves the process a third of its CPU
// (see README.md).
constexpr double kSubmitRate = 25000.0;   ///< single submits per second
constexpr double kBatchRate = 200.0;      ///< batch-64 rounds per second
constexpr double kLivePushRate = 2000.0;  ///< submit_sample calls per second
/// One swap_model per period. Each swap retires every cached answer;
/// at this cadence most single submits still hit the cache, so the
/// median sits inside the cache-hit mode of the latency distribution
/// rather than on the edge between hits and misses.
constexpr double kSwapPeriodS = 2.0;

constexpr int kPoolThreads = 2;
constexpr std::size_t kClosedClients = 2;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kStreamLen = std::size_t{1} << 17;  ///< request cycle
constexpr int kLiveSessions = 4;      ///< sessions in flight
constexpr int kReviseEvery = 8;       ///< predict_live after every 8th sample
constexpr int kCheckEveryBatch = 16;  ///< closed loop: check every 16th round

enum class Kind : std::uint8_t { kBatch, kLive, kSwap };

struct Event {
  std::uint64_t due_ns = 0;  ///< offset from the phase start
  Kind kind = Kind::kBatch;
};

struct Setup {
  FittedModel fit;
  std::vector<core::MigrationScenario> stream;
  std::vector<const models::MigrationObservation*> trails;
};

Setup build_setup(std::uint64_t seed, std::size_t stream_len) {
  Setup s;
  s.fit = fit_fast_campaign(seed);
  serve::QueryStreamOptions qo;
  qo.repeat_fraction = 0.9;
  s.stream = serve::QueryStreamGenerator::diurnal(qo, seed).generate(stream_len);
  for (const models::MigrationObservation& obs : s.fit.held_out.observations) {
    if (obs.samples.size() >= 2) s.trails.push_back(&obs);
  }
  return s;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.threads = kPoolThreads;
  cfg.fidelity = serve::Fidelity::kClosedForm;
  return cfg;
}

/// Everything one measured pass (open loop + closed loops) produced.
struct Pass {
  LoadAccount load;
  ClosedLoop batch_loop, single_loop;
  Windowed submit_us, batch_us, live_us;  // from due time
  Samples publish_us;                     // from due time
  Samples batch_call_us, swap_call_us, push_ns, revise_us;  // call time only
  Samples queue_wait_us;  ///< open loop's serve/queue_wait events (traced pass)
  std::vector<Answer> answers;  ///< open and closed loop, to check
  std::uint64_t live_closed = 0, live_bad = 0;
  std::uint32_t versions = 1;  ///< coefficient versions used
  serve::ServiceStats stats;
  double sync_predict_ns = 0.0;  ///< mean caller-thread predict, same requests
};

/// A submit in flight.
struct Pending {
  std::uint64_t due_ns = 0;
  std::uint32_t scenario = 0;
  std::uint32_t v_send = 0;
  std::future<core::MigrationForecast> future;
};

struct LiveSession {
  std::uint64_t id = 0;
  const models::MigrationObservation* obs = nullptr;  ///< null = not open
  std::size_t next = 0;
  int pushes = 0;
};

class ServeLocalRun {
 public:
  ServeLocalRun(const Setup& setup, const Options& opt,
                const std::vector<std::shared_ptr<const core::Wavm3Model>>& versions,
                const std::vector<std::shared_ptr<const core::Wavm3Model>>& reference)
      : setup_(setup), opt_(opt), versions_(versions), reference_(reference) {}

  Pass run(double open_s, double batch_s, double single_s) {
    serve::PredictionService svc(versions_[0], service_config());
    open_loop(svc, open_s);
    // The open loop's serve/queue_wait events, before the closed loop's
    // batch spans overwrite the workers' trace rings.
    for (const obs::TraceEvent& ev : obs::tracer().drain()) {
      if (std::string_view(ev.category) == "serve" && std::string_view(ev.name) == "queue_wait") {
        pass_.queue_wait_us.add(static_cast<double>(ev.dur_ns) * 1e-3);
      }
    }
    pass_.batch_loop = closed_loop(svc, batch_s, true);
    // The single-predict loop's wall rate is throughput_per_s: its
    // clients do all the work on their own threads. The batch loop's
    // wall rate hangs on waking pool workers, which on a shared VM
    // varied threefold between runs of the same code.
    pass_.single_loop = closed_loop(svc, single_s, false);
    pass_.stats = svc.stats();
    // Caller-thread predict over the same request stream, so that the
    // submit latency minus this is the cost of the pool hop.
    const std::size_t n = std::min<std::size_t>(setup_.stream.size(), 32768);
    obs::Tracer& tr = obs::tracer();
    const bool traced = tr.enabled();
    tr.set_enabled(false);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) sink_ += svc.predict(setup_.stream[i]).source_energy;
    pass_.sync_predict_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(n);
    tr.set_enabled(traced);
    return std::move(pass_);
  }

 private:
  std::uint32_t version() const { return version_.load(std::memory_order_acquire); }

  void open_loop(serve::PredictionService& svc, double duration_s) {
    const util::RngFactory rngs(opt_.seed);
    const std::vector<std::uint64_t> submits =
        poisson_arrivals(kSubmitRate, duration_s, rngs.stream("serve_local/submit"));
    std::vector<Event> sync;
    for (const std::uint64_t t :
         poisson_arrivals(kBatchRate, duration_s, rngs.stream("serve_local/batch"))) {
      sync.push_back({t, Kind::kBatch});
    }
    for (const std::uint64_t t :
         poisson_arrivals(kLivePushRate, duration_s, rngs.stream("serve_local/live"))) {
      sync.push_back({t, Kind::kLive});
    }
    for (double t = kSwapPeriodS; t < duration_s; t += kSwapPeriodS) {
      sync.push_back({static_cast<std::uint64_t>(t * 1e9), Kind::kSwap});
    }
    std::stable_sort(sync.begin(), sync.end(),
                     [](const Event& x, const Event& y) { return x.due_ns < y.due_ns; });
    pass_.load.offered_per_s = static_cast<double>(submits.size() + sync.size()) / duration_s;

    Lane a, b;
    t0_ = now_ns() + 1000000;  // 1 ms to get going
    std::future<void> caller = std::async(std::launch::async, [&] { sync_lane(svc, sync, b); });
    submit_lane(svc, submits, a);
    caller.get();
    pass_.load.open_s = static_cast<double>(now_ns() - t0_) * 1e-9;

    pass_.load.add_lanes(a, b);
    pass_.submit_us = std::move(a.lat_us);
    pass_.answers = std::move(a.answers);
    pass_.answers.insert(pass_.answers.end(), b.answers.begin(), b.answers.end());
    pass_.versions = version() + 1;
  }

  /// Single submits on schedule. A submit answered on the spot (a
  /// cache hit) completes at once; the others stay in flight, and while
  /// waiting for its next send the lane polls them (each unready one at
  /// most every kPollNs) and stamps each completion when it sees it.
  void submit_lane(serve::PredictionService& svc, const std::vector<std::uint64_t>& due_ns,
                   Lane& lane) {
    constexpr std::uint64_t kPollNs = 1000;
    lane.answers.reserve(due_ns.size());
    std::vector<Pending> inflight;
    std::uint64_t next_poll = 0;
    const auto complete = [&](Pending& p) {
      try {
        const core::MigrationForecast fc = p.future.get();
        const std::uint64_t end = now_ns();
        lane.lat_us.add(static_cast<double>(p.due_ns) * 1e-9,
                        static_cast<double>(end - (t0_ + p.due_ns)) * 1e-3);
        lane.answers.push_back(make_answer(p.scenario, p.v_send, version(), fc));
        ++lane.ok;
      } catch (const std::exception&) {
        ++lane.failed;
      }
    };
    const auto try_complete = [&](Pending& p) {
      if (p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) return false;
      complete(p);
      return true;
    };
    std::size_t cursor = 0;
    for (const std::uint64_t offset : due_ns) {
      const std::uint64_t due = t0_ + offset;
      for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
        if (!inflight.empty() && now >= next_poll) {
          std::erase_if(inflight, try_complete);
          next_poll = now + kPollNs;
        }
#if defined(__x86_64__) || defined(__i386__)
        _mm_pause();
#endif
      }
      lane.lag_us.add(static_cast<double>(offset) * 1e-9,
                      static_cast<double>(now_ns() - due) * 1e-3);
      ++lane.sent;
      Pending p;
      p.due_ns = offset;
      p.scenario = static_cast<std::uint32_t>(cursor);
      p.v_send = published_.load(std::memory_order_acquire);
      {
        WAVM3_OBS_SPAN(span, "bench", "serve.submit");
        p.future = svc.submit(setup_.stream[cursor]);
      }
      cursor = (cursor + 1) % setup_.stream.size();
      if (!try_complete(p)) inflight.push_back(std::move(p));
    }
    for (Pending& p : inflight) complete(p);
  }

  /// Batch rounds, live-session samples and revisions, and swaps, on
  /// schedule, each timed from when it was due.
  void sync_lane(serve::PredictionService& svc, const std::vector<Event>& events, Lane& lane) {
    std::size_t cursor = setup_.stream.size() / 2 / kBatch * kBatch;
    std::vector<serve::PredictionService::BatchItem> results(kBatch);
    std::vector<LiveSession> sessions(kLiveSessions);
    std::size_t live_rr = 0;
    for (const Event& ev : events) {
      const std::uint64_t due = t0_ + ev.due_ns;
      const double t_s = static_cast<double>(ev.due_ns) * 1e-9;
      wait_until(due);
      lane.lag_us.add(t_s, static_cast<double>(now_ns() - due) * 1e-3);
      ++lane.sent;
      switch (ev.kind) {
        case Kind::kBatch: {
          const std::span<const core::MigrationScenario> window(setup_.stream.data() + cursor,
                                                                kBatch);
          const std::uint32_t v = version();
          const std::uint64_t c0 = now_ns();
          {
            WAVM3_OBS_SPAN(span, "bench", "serve.predict_batch_results");
            svc.predict_batch_results(window, results);
          }
          const std::uint64_t end = now_ns();
          pass_.batch_call_us.add(static_cast<double>(end - c0) * 1e-3);
          pass_.batch_us.add(t_s, static_cast<double>(end - due) * 1e-3);
          bool all_ok = true;
          for (std::size_t i = 0; i < kBatch; ++i) {
            if (results[i].ok()) {
              lane.answers.push_back(make_answer(static_cast<std::uint32_t>(cursor + i), v, v,
                                                 *results[i].forecast));
            } else {
              all_ok = false;
            }
          }
          all_ok ? ++lane.ok : ++lane.failed;
          cursor = (cursor + kBatch) % setup_.stream.size();
          break;
        }
        case Kind::kLive:
          live_event(svc, sessions[live_rr++ % sessions.size()], due, lane);
          break;
        case Kind::kSwap: {
          const std::uint32_t next = version() + 1;
          if (next >= versions_.size()) break;
          // Advance the version before publishing and `published_`
          // after, so that [published_ at send, version_ at completion]
          // always covers the version an answer used.
          version_.store(next, std::memory_order_release);
          const std::uint64_t c0 = now_ns();
          {
            WAVM3_OBS_SPAN(span, "bench", "serve.swap_model");
            svc.swap_model(versions_[next]);
          }
          const std::uint64_t end = now_ns();
          published_.store(next, std::memory_order_release);
          pass_.swap_call_us.add(static_cast<double>(end - c0) * 1e-3);
          pass_.publish_us.add(static_cast<double>(end - due) * 1e-3);
          ++lane.ok;
          break;
        }
      }
    }
    for (LiveSession& s : sessions) {
      if (s.obs != nullptr) svc.close_stream(s.id);
    }
  }

  void live_event(serve::PredictionService& svc, LiveSession& s, std::uint64_t due, Lane& lane) {
    try {
      if (s.obs == nullptr) {
        s.obs = setup_.trails[next_trail_++ % setup_.trails.size()];
        s.id = next_session_id_++;
        s.next = 0;
        s.pushes = 0;
        svc.open_stream(s.id, s.obs->type, s.obs->times);
      }
      const std::uint64_t p0 = now_ns();
      {
        WAVM3_OBS_SPAN(span, "bench", "stream.submit_sample");
        svc.submit_sample(s.id, s.obs->role, s.obs->samples[s.next++]);
      }
      pass_.push_ns.add(static_cast<double>(now_ns() - p0));
      ++s.pushes;
      if (s.next == s.obs->samples.size()) {
        finish_session(svc, s);
      } else if (s.pushes % kReviseEvery == 0) {
        const std::uint64_t r0 = now_ns();
        stream::LiveForecast fc;
        {
          WAVM3_OBS_SPAN(span, "bench", "stream.predict_live");
          fc = svc.predict_live(s.id);
        }
        const std::uint64_t end = now_ns();
        sink_ += fc.total_j();
        pass_.revise_us.add(static_cast<double>(end - r0) * 1e-3);
        pass_.live_us.add(static_cast<double>(due - t0_) * 1e-9,
                          static_cast<double>(end - due) * 1e-3);
      }
      ++lane.ok;
    } catch (const std::exception&) {
      ++lane.failed;
      s.obs = nullptr;
    }
  }

  /// Final revision over the whole trail, checked against the batch
  /// path (FeatureBatch::of + predict_batch) under the live version.
  void finish_session(serve::PredictionService& svc, LiveSession& s) {
    svc.stream_registry().find(s.id)->finish();
    const stream::LiveForecast fc = svc.predict_live(s.id);
    const double live_j =
        s.obs->role == models::HostRole::kSource ? fc.source.energy_j : fc.target.energy_j;
    const models::FeatureBatch full = models::FeatureBatch::of(*s.obs);
    double batch_j = 0.0;
    reference_[version()]->predict_batch(full, std::span<double>(&batch_j, 1));
    ++pass_.live_closed;
    if (!rel_close(live_j, batch_j, 1e-9)) ++pass_.live_bad;
    svc.close_stream(s.id);
    s.obs = nullptr;
  }

  /// Rounds of kBatch predictions from kClosedClients clients, through
  /// predict_batch_results or (single) one caller-thread predict each.
  ClosedLoop closed_loop(serve::PredictionService& svc, double duration_s, bool batch) {
    const std::uint32_t v = version();
    const std::size_t n = setup_.stream.size();
    std::vector<std::vector<Answer>> answers(kClosedClients);
    std::vector<std::vector<serve::PredictionService::BatchItem>> results(
        kClosedClients, std::vector<serve::PredictionService::BatchItem>(kBatch));
    std::vector<std::size_t> cursor(kClosedClients);
    for (std::size_t k = 0; k < kClosedClients; ++k) {
      cursor[k] = (k * n / kClosedClients) / kBatch * kBatch;
    }
    const ClosedLoop loop =
        run_closed_loop(kClosedClients, duration_s, [&](std::size_t k, std::uint64_t round) {
          const std::span<const core::MigrationScenario> window(setup_.stream.data() + cursor[k],
                                                                kBatch);
          std::vector<serve::PredictionService::BatchItem>& res = results[k];
          if (batch) {
            WAVM3_OBS_SPAN(span, "bench", "serve.predict_batch_results");
            svc.predict_batch_results(window, res);
          } else {
            WAVM3_OBS_SPAN(span, "bench", "serve.predict");
            for (std::size_t i = 0; i < kBatch; ++i) {
              try {
                res[i].forecast = svc.predict(window[i]);
              } catch (const std::exception&) {
                res[i].forecast.reset();
              }
            }
          }
          Round r;
          for (std::size_t i = 0; i < kBatch; ++i) {
            ++r.items;
            if (!res[i].ok()) {
              ++r.failed;
            } else if (round % kCheckEveryBatch == 0) {
              answers[k].push_back(make_answer(static_cast<std::uint32_t>(cursor[k] + i), v, v,
                                               *res[i].forecast));
            }
          }
          cursor[k] = (cursor[k] + kBatch) % n;
          return r;
        });
    for (const std::vector<Answer>& a : answers) {
      pass_.answers.insert(pass_.answers.end(), a.begin(), a.end());
    }
    return loop;
  }

  const Setup& setup_;
  const Options& opt_;
  const std::vector<std::shared_ptr<const core::Wavm3Model>>& versions_;
  const std::vector<std::shared_ptr<const core::Wavm3Model>>& reference_;
  std::atomic<std::uint32_t> version_{0};    ///< newest version, maybe still publishing
  std::atomic<std::uint32_t> published_{0};  ///< newest version swap_model returned for
  std::uint64_t t0_ = 0;                     ///< open-loop phase start
  std::size_t next_trail_ = 0;
  std::uint64_t next_session_id_ = 1;
  Pass pass_;
  double sink_ = 0.0;
};

}  // namespace

Outcome run_serve_local(const Options& opt) {
  Outcome out;
  const std::size_t stream_len = opt.smoke ? 8192 : kStreamLen;

  // Set-up: fit on the fast campaign, generate the request stream and
  // the sample trails, start the service.
  Setup setup;
  out.set("setup_s", median_seconds(kSetupReps, [&] {
            setup = build_setup(opt.seed, stream_len);
            const serve::PredictionService started(setup.fit.model, service_config());
          }),
          "s");
  out.note(fmt("serve_local: %zu-request diurnal stream (90%% repeats), %zu held-out trails, "
               "pool %d workers",
               setup.stream.size(), setup.trails.size(), kPoolThreads));

  const double total = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const double open_s = 0.6 * total;
  const double batch_s = 0.15 * total;
  const double single_s = 0.25 * total;
  const auto n_versions = static_cast<std::size_t>(open_s / kSwapPeriodS) + 2;
  const auto versions = coefficient_versions(*setup.fit.model, n_versions, 0.0);
  const auto reference =
      opt.perturb_check ? coefficient_versions(*setup.fit.model, n_versions, 1e-6) : versions;

  const Pass plain = ServeLocalRun(setup, opt, versions, reference).run(open_s, batch_s, single_s);
  Pass traced;
  if (opt.trace) {
    trace_begin();
    traced = ServeLocalRun(setup, opt, versions, reference).run(open_s, batch_s, single_s);
    trace_end(out, opt.workload);
  }

  // Correctness gates (both passes).
  for (const Pass* p : {&plain, opt.trace ? &std::as_const(traced) : nullptr}) {
    if (p == nullptr) continue;
    check_answers(p->answers, setup.stream, reference, "serve_local", out);
    if (p->live_bad > 0) {
      out.fail(fmt("serve_local: %llu of %llu closed live sessions differ from predict_batch "
                   "on their full trail by more than 1e-9",
                   static_cast<unsigned long long>(p->live_bad),
                   static_cast<unsigned long long>(p->live_closed)));
    }
    if (p->live_closed == 0) out.fail("serve_local: no live session ran to completion");
    out.attempted += p->load.sent + p->batch_loop.items + p->single_loop.items;
    out.failed += p->load.failed + p->batch_loop.failed + p->single_loop.failed;
    const bool is_plain = p == &plain;
    p->load.report(out, is_plain ? "" : " (traced)");
    p->batch_loop.report(out, is_plain ? "closed batch64" : "closed batch64 (traced)");
    p->single_loop.report(out, is_plain ? "closed single" : "closed single (traced)");
  }

  // End-to-end (untraced pass).
  const Pass& e = plain;
  out.set("p50_us", e.submit_us.pct(0.50, kQuietQuantile), "us");
  out.set("caller.batch64_p50_us", e.batch_us.pct(0.50, kQuietQuantile), "us");
  out.set("caller.p99_us", e.submit_us.pct(0.99), "us");
  out.set("caller.batch64_p99_us", e.batch_us.pct(0.99), "us");
  out.set("caller.live_p50_us", e.live_us.pct(0.50), "us");
  out.set("caller.live_p99_us", e.live_us.pct(0.99), "us");
  out.set("caller.publish_p50_us", e.publish_us.pct(0.50), "us");
  e.load.record(out);
  record_throughput(out, e.batch_loop, e.single_loop);
  out.note(fmt("samples: submit %zu, batch64 %zu, live revisions %zu, swaps %zu",
               e.submit_us.size(), e.batch_us.size(), e.live_us.size(), e.publish_us.size()));
  out.note(fmt("live sessions closed %llu (parity failures %llu); coefficient versions %u",
               static_cast<unsigned long long>(e.live_closed),
               static_cast<unsigned long long>(e.live_bad), e.versions));

  if (opt.trace) {
    const Pass& t = traced;
    out.set("obs.trace_overhead",
            t.submit_us.pct(0.5, kQuietQuantile) / plain.submit_us.pct(0.5, kQuietQuantile) - 1.0,
            "ratio");
    out.set("serve.cache_hit_ratio", t.stats.cache.hit_rate(), "ratio");
    out.set("serve.cache_evictions", static_cast<double>(t.stats.cache.evictions), "count");
    out.set("serve.queue_wait_p50_us", t.queue_wait_us.pct(0.50), "us");
    out.set("serve.queue_wait_p99_us", t.queue_wait_us.pct(0.99), "us");
    out.note(fmt("serve/queue_wait events retained from the open loop: %zu",
                 t.queue_wait_us.size()));
    out.set("serve.sync_predict_ns", t.sync_predict_ns, "ns");
    out.set("serve.batch_call_us", t.batch_call_us.pct(0.50), "us");
    out.set("serve.swap_us", t.swap_call_us.pct(0.50), "us");
    out.set("serve.shed", static_cast<double>(t.stats.resilience.shed), "count");
    out.set("serve.deadline_expired", static_cast<double>(t.stats.resilience.deadline_expired),
            "count");
    out.set("stream.push_ns", t.push_ns.pct(0.50), "ns");
    out.set("stream.revise_us", t.revise_us.pct(0.50), "us");
    const std::vector<core::MigrationScenario> probe(
        setup.stream.begin(),
        setup.stream.begin() +
            static_cast<std::ptrdiff_t>(std::min<std::size_t>(4096, setup.stream.size())));
    record_core_and_kernel_probes(out, *setup.fit.model, probe, opt.seed);
  }
  return out;
}

}  // namespace perfbench
