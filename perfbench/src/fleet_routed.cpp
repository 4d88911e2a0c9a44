// fleet_routed: the distributed-service path. The diurnal query stream
// with no repeats, routed through rpc::FleetClient over a
// LoopbackTransport to 4 FleetNodes with replication 2. Nodes answer on
// the caller's thread, so each node pool is 1 idle worker. The open
// loop has two lanes: routed predicts on schedule, and a second caller
// running batch-64 rounds (64 routed predicts back to back, there being
// no batch RPC) and a two-phase FleetClient::publish at a fixed
// cadence; no node is lost. Then a closed loop of routed predicts from
// 2 client threads.
//
// In the traced pass the benchmark wraps the transport and every node
// handler in its own decorators, which time each hop from outside.
#include <algorithm>
#include <atomic>
#include <future>
#include <utility>

#include "rpc/fleet.hpp"
#include "rpc/messages.hpp"
#include "rpc/node.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"
#include "serve/query_stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Offered open-loop rates: fixed, about a sixth of the capacity the seed
// code reaches on an uncontended 4-vCPU host, so that the loop still
// keeps up when a shared host leaves the process a third of its CPU
// (see README.md).
constexpr double kPredictRate = 20000.0;  ///< routed predicts per second
constexpr double kBatchRate = 50.0;       ///< batch-64 rounds per second
constexpr double kPublishPeriodS = 0.5;   ///< one two-phase publish per period

constexpr int kNodes = 4;
constexpr std::size_t kReplication = 2;
constexpr std::size_t kClosedClients = 2;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kStreamLen = std::size_t{1} << 17;  ///< request cycle
constexpr int kCheckEvery = 16;  ///< closed loop: check every 16th answer

// Per-thread time spent below the client in the current request,
// filled by the decorators.
thread_local std::uint64_t t_transport_ns = 0;
thread_local std::uint64_t t_handler_ns = 0;

/// Transport decorator: time inside Transport::call.
class TimedTransport final : public rpc::Transport {
 public:
  explicit TimedTransport(rpc::Transport& inner) : inner_(inner) {}
  std::vector<std::uint8_t> call(int node, std::span<const std::uint8_t> frame) override {
    const std::uint64_t t0 = now_ns();
    WAVM3_OBS_SPAN(span, "bench", "rpc.transport_call");
    std::vector<std::uint8_t> r = inner_.call(node, frame);
    t_transport_ns += now_ns() - t0;
    return r;
  }

 private:
  rpc::Transport& inner_;
};

/// Handler decorator around a FleetNode: time inside RpcHandler::handle.
class TimedHandler final : public rpc::RpcHandler {
 public:
  explicit TimedHandler(rpc::FleetNode& node) : node_(node) {}
  std::vector<std::uint8_t> handle(std::span<const std::uint8_t> frame) override {
    const std::uint64_t t0 = now_ns();
    WAVM3_OBS_SPAN(span, "bench", "rpc.node_handle");
    std::vector<std::uint8_t> r = node_.handle(frame);
    t_handler_ns += now_ns() - t0;
    return r;
  }

 private:
  rpc::FleetNode& node_;
};

/// A started fleet: transport, nodes and the routing client; with
/// `timed`, the benchmark's decorators sit between them.
struct RoutedFleet {
  rpc::LoopbackTransport loopback;
  std::vector<std::unique_ptr<rpc::FleetNode>> nodes;
  std::vector<std::unique_ptr<TimedHandler>> handlers;
  std::unique_ptr<TimedTransport> timed_transport;
  std::unique_ptr<rpc::FleetClient> client;

  RoutedFleet(const std::shared_ptr<const core::Wavm3Model>& model, bool timed) : loopback(2015) {
    for (int n = 0; n < kNodes; ++n) {
      rpc::FleetNodeConfig cfg;
      cfg.node_id = n;
      cfg.service.threads = 1;
      cfg.service.fidelity = serve::Fidelity::kClosedForm;
      nodes.push_back(std::make_unique<rpc::FleetNode>(model, cfg));
      if (timed) {
        handlers.push_back(std::make_unique<TimedHandler>(*nodes.back()));
        loopback.register_node(n, handlers.back().get());
      } else {
        loopback.register_node(n, nodes.back().get());
      }
    }
    rpc::Transport* transport = &loopback;
    if (timed) {
      timed_transport = std::make_unique<TimedTransport>(loopback);
      transport = timed_transport.get();
    }
    rpc::FleetClientConfig ccfg;
    ccfg.replication = kReplication;
    client = std::make_unique<rpc::FleetClient>(*transport, ccfg);
    for (int n = 0; n < kNodes; ++n) client->add_node(n);
  }
};

struct Setup {
  FittedModel fit;
  std::vector<core::MigrationScenario> stream;
};

enum class Kind : std::uint8_t { kBatch, kPublish };

struct Event {
  std::uint64_t due_ns = 0;  ///< offset from the phase start
  Kind kind = Kind::kBatch;
};

struct Pass {
  LoadAccount load;
  ClosedLoop closed;
  Windowed predict_us, batch_us;  // from due time
  Samples publish_us;             // from due time
  Samples publish_call_us;
  Samples client_self_us, transport_self_us, handler_us;  // traced pass only
  std::vector<Answer> answers;
  std::uint64_t publishes = 0, publish_failed = 0;
  std::uint32_t versions = 1;
  std::uint64_t failovers = 0;
  double node_share_max = 0.0;
  bool converged_at_end = false;
  serve::CacheStats cache;
  double sync_predict_ns = 0.0;  ///< mean caller-thread predict on a node
};

class FleetRun {
 public:
  FleetRun(const Setup& setup, const Options& opt,
           const std::vector<std::shared_ptr<const core::Wavm3Model>>& versions, bool timed)
      : setup_(setup), opt_(opt), versions_(versions), fleet_(versions[0], timed), timed_(timed) {}

  Pass run(double open_s, double closed_s) {
    open_loop(open_s);
    closed_loop(closed_s);

    const rpc::FleetStatus status = fleet_.client->status();
    bool agree = status.epoch_lag == 0;
    for (const rpc::NodeStatus& n : status.nodes) {
      agree = agree && n.reachable && n.status.committed_epoch == fleet_.client->committed_epoch();
    }
    pass_.converged_at_end = agree;
    pass_.failovers = fleet_.client->failovers();
    std::uint64_t calls = 0, max_calls = 0;
    for (int n = 0; n < kNodes; ++n) {
      calls += fleet_.loopback.calls(n);
      max_calls = std::max(max_calls, fleet_.loopback.calls(n));
      const serve::CacheStats c =
          fleet_.nodes[static_cast<std::size_t>(n)]->service().stats().cache;
      pass_.cache.hits += c.hits;
      pass_.cache.misses += c.misses;
      pass_.cache.insertions += c.insertions;
      pass_.cache.evictions += c.evictions;
    }
    pass_.node_share_max =
        calls == 0 ? 0.0 : static_cast<double>(max_calls) / static_cast<double>(calls);

    // Caller-thread predict on a node's own service, over requests it
    // has not seen (a node serves misses: there are no repeats).
    obs::Tracer& tr = obs::tracer();
    const bool traced = tr.enabled();
    tr.set_enabled(false);
    serve::PredictionService& svc = fleet_.nodes[0]->service();
    const std::size_t n = std::min<std::size_t>(setup_.stream.size(), 32768);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      sink_ += svc.predict(setup_.stream[(cursor_ + i) % setup_.stream.size()]).source_energy;
    }
    pass_.sync_predict_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(n);
    tr.set_enabled(traced);
    return std::move(pass_);
  }

 private:
  std::uint32_t version() const { return version_.load(std::memory_order_acquire); }
  std::uint32_t published() const { return published_.load(std::memory_order_acquire); }

  /// One routed predict of stream[idx]; the answer is checked later
  /// against the epochs live between send and completion. Records the
  /// decorators' split when timed and `split` (one lane only: the split
  /// samples are not shared between threads).
  bool predict(std::size_t idx, std::vector<Answer>& answers, bool split) {
    t_transport_ns = 0;
    t_handler_ns = 0;
    const std::uint32_t v_lo = published();
    try {
      const std::uint64_t t0 = now_ns();
      core::MigrationForecast fc;
      {
        WAVM3_OBS_SPAN(span, "bench", "rpc.client_predict");
        fc = fleet_.client->predict(setup_.stream[idx]);
      }
      const std::uint64_t total = now_ns() - t0;
      if (timed_ && split) {
        pass_.client_self_us.add(static_cast<double>(total - t_transport_ns) * 1e-3);
        pass_.transport_self_us.add(static_cast<double>(t_transport_ns - t_handler_ns) * 1e-3);
        pass_.handler_us.add(static_cast<double>(t_handler_ns) * 1e-3);
      }
      answers.push_back(make_answer(static_cast<std::uint32_t>(idx), v_lo, version(), fc));
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  void open_loop(double duration_s) {
    const util::RngFactory rngs(opt_.seed);
    const std::vector<std::uint64_t> predicts =
        poisson_arrivals(kPredictRate, duration_s, rngs.stream("fleet_routed/predict"));
    std::vector<Event> sync;
    for (const std::uint64_t t :
         poisson_arrivals(kBatchRate, duration_s, rngs.stream("fleet_routed/batch"))) {
      sync.push_back({t, Kind::kBatch});
    }
    for (double t = kPublishPeriodS; t < duration_s; t += kPublishPeriodS) {
      sync.push_back({static_cast<std::uint64_t>(t * 1e9), Kind::kPublish});
    }
    std::stable_sort(sync.begin(), sync.end(),
                     [](const Event& x, const Event& y) { return x.due_ns < y.due_ns; });
    pass_.load.offered_per_s = static_cast<double>(predicts.size() + sync.size()) / duration_s;

    // The lanes draw from disjoint halves of the request cycle.
    const std::size_t half = setup_.stream.size() / 2;
    Lane a, b;
    const std::uint64_t t0 = now_ns() + 1000000;  // 1 ms to get going
    std::future<void> caller =
        std::async(std::launch::async, [&] { sync_lane(sync, t0, half, b); });
    predict_lane(predicts, t0, half, a);
    caller.get();
    pass_.load.open_s = static_cast<double>(now_ns() - t0) * 1e-9;

    pass_.load.add_lanes(a, b);
    pass_.predict_us = std::move(a.lat_us);
    pass_.batch_us = std::move(b.lat_us);
    pass_.answers = std::move(a.answers);
    pass_.answers.insert(pass_.answers.end(), b.answers.begin(), b.answers.end());
    pass_.versions = version() + 1;
  }

  void predict_lane(const std::vector<std::uint64_t>& due_ns, std::uint64_t t0, std::size_t span,
                    Lane& lane) {
    lane.answers.reserve(due_ns.size());
    for (const std::uint64_t offset : due_ns) {
      const std::uint64_t due = t0 + offset;
      spin_until(due);
      const double t_s = static_cast<double>(offset) * 1e-9;
      lane.lag_us.add(t_s, static_cast<double>(now_ns() - due) * 1e-3);
      ++lane.sent;
      const bool ok = predict(cursor_, lane.answers, true);
      cursor_ = (cursor_ + 1) % span;
      if (ok) lane.lat_us.add(t_s, static_cast<double>(now_ns() - due) * 1e-3);
      ok ? ++lane.ok : ++lane.failed;
    }
  }

  void sync_lane(const std::vector<Event>& events, std::uint64_t t0, std::size_t base,
                 Lane& lane) {
    std::size_t cursor = base;
    for (const Event& ev : events) {
      const std::uint64_t due = t0 + ev.due_ns;
      wait_until(due);
      const double t_s = static_cast<double>(ev.due_ns) * 1e-9;
      lane.lag_us.add(t_s, static_cast<double>(now_ns() - due) * 1e-3);
      ++lane.sent;
      if (ev.kind == Kind::kBatch) {
        bool ok = true;
        for (std::size_t i = 0; i < kBatch; ++i) {
          ok = predict(cursor, lane.answers, false) && ok;
          cursor = cursor + 1 < setup_.stream.size() ? cursor + 1 : base;
        }
        if (ok) lane.lat_us.add(t_s, static_cast<double>(now_ns() - due) * 1e-3);
        ok ? ++lane.ok : ++lane.failed;
        continue;
      }
      const std::uint32_t next = version() + 1;
      if (next >= versions_.size()) continue;
      // Advance the version before publishing and `published_` after,
      // so that [published_ at send, version_ at completion] always
      // covers the epoch an answer used.
      version_.store(next, std::memory_order_release);
      const std::uint64_t c0 = now_ns();
      rpc::PublishReport report;
      {
        WAVM3_OBS_SPAN(span, "bench", "rpc.publish");
        report = fleet_.client->publish(*versions_[next]);
      }
      const std::uint64_t end = now_ns();
      ++pass_.publishes;
      if (report.converged && report.commit_acks == kNodes) {
        published_.store(next, std::memory_order_release);
        pass_.publish_call_us.add(static_cast<double>(end - c0) * 1e-3);
        pass_.publish_us.add(static_cast<double>(end - due) * 1e-3);
        ++lane.ok;
      } else {
        ++pass_.publish_failed;
        ++lane.failed;
      }
    }
  }

  void closed_loop(double duration_s) {
    const std::uint32_t v = version();
    const std::size_t n = setup_.stream.size();
    std::vector<std::vector<Answer>> answers(kClosedClients);
    std::vector<std::size_t> idx(kClosedClients);
    for (std::size_t k = 0; k < kClosedClients; ++k) {
      idx[k] = (cursor_ + k * n / kClosedClients) % n;
    }
    pass_.closed = run_closed_loop(kClosedClients, duration_s, [&](std::size_t k, std::uint64_t i) {
      Round r{1, 0};
      try {
        core::MigrationForecast fc;
        {
          WAVM3_OBS_SPAN(span, "bench", "rpc.client_predict");
          fc = fleet_.client->predict(setup_.stream[idx[k]]);
        }
        if (i % kCheckEvery == 0) {
          answers[k].push_back(make_answer(static_cast<std::uint32_t>(idx[k]), v, v, fc));
        }
      } catch (const std::exception&) {
        r.failed = 1;
      }
      idx[k] = (idx[k] + 1) % n;
      return r;
    });
    for (const std::vector<Answer>& a : answers) {
      pass_.answers.insert(pass_.answers.end(), a.begin(), a.end());
    }
  }

  const Setup& setup_;
  const Options& opt_;
  const std::vector<std::shared_ptr<const core::Wavm3Model>>& versions_;
  RoutedFleet fleet_;
  bool timed_;
  std::atomic<std::uint32_t> version_{0};    ///< newest epoch, maybe still publishing
  std::atomic<std::uint32_t> published_{0};  ///< newest epoch every node committed
  std::size_t cursor_ = 0;                   ///< predict lane's next request
  Pass pass_;
  double sink_ = 0.0;
};

/// The workload's own frames through the public codec functions:
/// encode/decode of one request and one response, and CRC-32 of both
/// payloads.
void codec_probe(Outcome& out, const std::vector<core::MigrationScenario>& scenarios,
                 const core::Wavm3Model& model) {
  const std::size_t n = std::min<std::size_t>(scenarios.size(), 4096);
  const core::MigrationPlanner planner(model);
  std::vector<std::vector<std::uint8_t>> requests(n), responses(n);
  Samples enc, dec, crc;
  double bytes = 0.0;
  std::uint32_t sink = 0;
  for (int rep = 0; rep < 4; ++rep) {
    std::uint64_t e = 0, d = 0, c = 0;
    for (std::size_t i = 0; i < n; ++i) {
      rpc::PredictResponse resp;
      resp.forecast = planner.forecast(scenarios[i]);
      resp.epoch = 1;
      std::uint64_t t0 = now_ns();
      requests[i] = rpc::encode_predict_request(rpc::PredictRequest{scenarios[i]});
      responses[i] = rpc::encode_predict_response(resp);
      e += now_ns() - t0;
      t0 = now_ns();
      const rpc::PredictRequest req = rpc::decode_predict_request(rpc::decode_frame(requests[i]));
      const rpc::PredictResponse back =
          rpc::decode_predict_response(rpc::decode_frame(responses[i]));
      d += now_ns() - t0;
      sink += static_cast<std::uint32_t>(req.scenario.vm_cpu_vcpus + back.forecast.downtime);
      t0 = now_ns();
      const std::span<const std::uint8_t> rq(requests[i]);
      const std::span<const std::uint8_t> rs(responses[i]);
      sink += rpc::crc32(rq.subspan(rpc::kFrameHeaderBytes)) +
              rpc::crc32(rs.subspan(rpc::kFrameHeaderBytes));
      c += now_ns() - t0;
      bytes = static_cast<double>(requests[i].size() + responses[i].size());
    }
    enc.add(static_cast<double>(e) / static_cast<double>(n));
    dec.add(static_cast<double>(d) / static_cast<double>(n));
    crc.add(static_cast<double>(c) / static_cast<double>(n));
  }
  out.set("rpc.encode_ns", enc.pct(0.5), "ns");
  out.set("rpc.decode_ns", dec.pct(0.5), "ns");
  out.set("rpc.crc32_ns", crc.pct(0.5), "ns");
  out.set("rpc.frame_bytes", bytes, "bytes");
  out.note(fmt("codec probe: %zu request/response frame pairs (checksum %u)", n, sink));
}

}  // namespace

Outcome run_fleet_routed(const Options& opt) {
  Outcome out;
  const std::size_t stream_len = opt.smoke ? 8192 : kStreamLen;

  // Set-up: fit, generate the request stream, start the nodes.
  Setup setup;
  out.set("setup_s", median_seconds(kSetupReps, [&] {
            setup.fit = fit_fast_campaign(opt.seed);
            serve::QueryStreamOptions qo;
            qo.repeat_fraction = 0.0;
            setup.stream = serve::QueryStreamGenerator::diurnal(qo, opt.seed).generate(stream_len);
            const RoutedFleet started(setup.fit.model, false);
          }),
          "s");
  out.note(fmt("fleet_routed: %zu-request diurnal stream (no repeats), %d nodes, replication %zu",
               setup.stream.size(), kNodes, kReplication));

  const double total = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const double open_s = 0.6 * total;
  const double closed_s = 0.4 * total;
  const auto n_versions = static_cast<std::size_t>(open_s / kPublishPeriodS) + 2;
  const auto versions = coefficient_versions(*setup.fit.model, n_versions, 0.0);
  const auto reference =
      opt.perturb_check ? coefficient_versions(*setup.fit.model, n_versions, 1e-6) : versions;

  const Pass plain = FleetRun(setup, opt, versions, false).run(open_s, closed_s);
  Pass traced;
  if (opt.trace) {
    trace_begin();
    traced = FleetRun(setup, opt, versions, true).run(open_s, closed_s);
    trace_end(out, opt.workload);
  }

  for (const Pass* p : {&plain, opt.trace ? &std::as_const(traced) : nullptr}) {
    if (p == nullptr) continue;
    check_answers(p->answers, setup.stream, reference, "fleet_routed", out);
    if (p->publish_failed > 0) {
      out.fail(fmt("fleet_routed: %llu of %llu publishes did not converge on all nodes",
                   static_cast<unsigned long long>(p->publish_failed),
                   static_cast<unsigned long long>(p->publishes)));
    }
    if (!p->converged_at_end) out.fail("fleet_routed: nodes do not all serve the final epoch");
    out.attempted += p->load.sent + p->closed.items;
    out.failed += p->load.failed + p->closed.failed;
    p->load.report(out, p == &plain ? "" : " (traced)");
    p->closed.report(out, p == &plain ? "closed" : "closed (traced)");
  }

  const Pass& e = plain;
  out.set("p50_us", e.predict_us.pct(0.50, kQuietQuantile), "us");
  out.set("caller.batch64_p50_us", e.batch_us.pct(0.50, kQuietQuantile), "us");
  out.set("caller.p99_us", e.predict_us.pct(0.99), "us");
  out.set("caller.batch64_p99_us", e.batch_us.pct(0.99), "us");
  out.set("caller.publish_p50_us", e.publish_us.pct(0.50), "us");
  e.load.record(out);
  // The nodes answer on the clients' threads, so the one closed loop
  // gives both the wall-clock rate and the rate per CPU-second.
  record_throughput(out, e.closed, e.closed);
  out.note(fmt("samples: predict %zu, batch64 %zu, publishes %zu (epochs %u) in %zu windows "
               "of 0.5 s",
               e.predict_us.size(), e.batch_us.size(), e.publish_us.size(), e.versions,
               e.predict_us.windows()));

  if (opt.trace) {
    const Pass& t = traced;
    out.set("obs.trace_overhead",
            t.predict_us.pct(0.5, kQuietQuantile) / plain.predict_us.pct(0.5, kQuietQuantile) -
                1.0,
            "ratio");
    out.set("serve.cache_hit_ratio", t.cache.hit_rate(), "ratio");
    out.set("serve.cache_evictions", static_cast<double>(t.cache.evictions), "count");
    const double sync_ns = t.sync_predict_ns;
    out.set("serve.sync_predict_ns", sync_ns, "ns");
    out.set("rpc.client_self_us", t.client_self_us.pct(0.50), "us");
    out.set("rpc.transport_self_us", t.transport_self_us.pct(0.50), "us");
    out.set("rpc.node_handle_us", t.handler_us.pct(0.50) - sync_ns * 1e-3, "us");
    out.note(fmt("rpc split (median us): client %.3f, transport %.3f, handler %.3f, of which "
                 "sync predict %.3f",
                 t.client_self_us.pct(0.5), t.transport_self_us.pct(0.5), t.handler_us.pct(0.5),
                 sync_ns * 1e-3));
    out.set("rpc.node_share_max", t.node_share_max, "ratio");
    out.set("rpc.failovers", static_cast<double>(t.failovers), "count");
    out.set("rpc.publish_us", t.publish_call_us.pct(0.50), "us");
    codec_probe(out, setup.stream, *setup.fit.model);
    const std::vector<core::MigrationScenario> probe(
        setup.stream.begin(),
        setup.stream.begin() +
            static_cast<std::ptrdiff_t>(std::min<std::size_t>(4096, setup.stream.size())));
    record_core_and_kernel_probes(out, *setup.fit.model, probe, opt.seed);
  }
  return out;
}

}  // namespace perfbench
