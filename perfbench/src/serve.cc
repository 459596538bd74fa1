/**
 * @file
 * serve_open and serve_publish: open-loop Poisson arrivals over TCP
 * into serve::EventLoopServer -> serve::ReplicaRouter (2 replicas x 1
 * FastCpu worker, wide net, max batch 16), from one client thread that
 * pipelines requests on 4 connections with the serve/wire.hh codec.
 * Latency counts from each request's scheduled send time. serve_open
 * then climbs a ladder of fixed rates to find capacity; serve_publish
 * keeps the nominal rate while a publisher hot-swaps two parameter
 * sets at a fixed cadence.
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.hh"
#include "net/frame.hh"
#include "probe.hh"
#include "report.hh"
#include "rl/backend.hh"
#include "serve/event_loop.hh"
#include "serve/router.hh"
#include "serve/wire.hh"
#include "sim/rng.hh"
#include "stats.hh"

namespace perfbench {

namespace {

constexpr int kReplicas = 2;
constexpr int kMaxBatch = 16;
constexpr int kConnections = 4;
constexpr int kSetupReps = 5;
constexpr int kPoolSize = 32;
constexpr int kWarmupRequests = 4 * kMaxBatch;
constexpr double kDeadlineMs = 50.0;
/** Nominal offered load: ~22% of the ~3600 IPS capacity of a 4-core
 * Xeon VM (AVX-512 kernels) with its cores to itself, low enough to stay
 * below capacity on a host with far fewer free cores (pinned to one
 * core: capacity ~1250 IPS; 2000 IPS gave a p50 of 24 ms and 8% late
 * requests on such a host). */
constexpr double kNominalIps = 800.0;
/** Capacity ladder, ascending absolute rates from the nominal rate
 * past the knee. Each stack climbs a short stretch of it around the
 * knee: the first from two rungs below kRefCapacityIps, later ones
 * from two rungs below the median knee so far; a start rung that
 * fails walks down instead. */
constexpr double kLadderIps[] = {800,  1000, 1250, 1500, 1750, 2000,
                                 2250, 2500, 2750, 3000, 3200, 3400,
                                 3600, 3800, 4000, 4200, 4400, 4600,
                                 4800, 5000, 5300, 5600, 6000};
/** Capacity of the 4-core Xeon VM above; only where the climb starts. */
constexpr double kRefCapacityIps = 3600.0;
/** Requests per rung at least: a p99 with kTailMinBeyond beyond it. */
constexpr double kRungMinRequests = 100.0 * kTailMinBeyond * 1.2;
constexpr double kPublishEveryMs = 200.0;
constexpr int kQuietPublishes = 21;
/** Generator lateness (p99) beyond which a window is invalid. */
constexpr double kMaxGenLagUs = 10000.0;
constexpr double kDrainUs = 2e6;

nn::NetConfig
wideNet()
{
    nn::NetConfig c = nn::NetConfig::atari(4);
    c.fcSize = 1024;
    return c;
}

/** One request of a schedule. */
struct Req
{
    double schedUs = 0.0;
    double sendUs = 0.0;
    double recvUs = 0.0;
    std::uint32_t obs = 0;
    std::uint64_t tag = 0;
    int conn = 0;
    int seg = kWarmup;
    bool done = false;
    serve::Response resp;

    bool
    failed() const
    {
        return !done ||
               resp.status != serve::Status::Ok ||
               recvUs - schedUs > kDeadlineMs * 1e3;
    }
};

/** Poisson arrivals at @p ips from @p start for @p seconds. */
std::vector<Req>
poissonPlan(sim::Rng &rng, double start_us, double ips, double seconds,
            int segments)
{
    std::vector<Req> plan;
    const double end = start_us + seconds * 1e6;
    double t = start_us;
    for (std::size_t i = 0;; ++i) {
        t += -std::log(1.0 - rng.uniform()) / ips * 1e6;
        if (t >= end)
            break;
        Req r;
        r.schedUs = t;
        r.obs = rng.uniformInt(kPoolSize);
        r.conn = static_cast<int>(i % kConnections);
        r.seg = std::min(segments - 1,
                         static_cast<int>((t - start_us) /
                                          (end - start_us) * segments));
        plan.push_back(r);
    }
    return plan;
}

/**
 * Single-threaded pipelining client: non-blocking sockets, one ppoll
 * loop that sends each request when due and reads responses as they
 * arrive. Every Ok response passes through the ServeChecker.
 */
class OpenLoopClient
{
  public:
    OpenLoopClient(const std::vector<tensor::Tensor> &pool,
                   ServeChecker checker)
        : pool_(pool), checker_(std::move(checker))
    {
    }

    ~OpenLoopClient()
    {
        for (auto &c : conns_)
            ::close(c.fd);
    }

    OpenLoopClient(const OpenLoopClient &) = delete;
    OpenLoopClient &operator=(const OpenLoopClient &) = delete;

    bool
    connect(std::uint16_t port)
    {
        for (int i = 0; i < kConnections; ++i) {
            const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0)
                return false;
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) != 0) {
                ::close(fd);
                return false;
            }
            fa3c::net::setNoDelay(fd);
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
            conns_.emplace_back();
            conns_.back().fd = fd;
        }
        return true;
    }

    /**
     * Send @p reqs on schedule and collect responses until all are
     * answered or @p drain_us after the last send. @p tick runs on
     * every loop turn with the current time.
     */
    void
    run(std::vector<Req> &reqs, const std::function<void(double)> &tick)
    {
        reqs_ = &reqs;
        inflightAtSend.clear();
        std::size_t next = 0;
        double drain_deadline = 0.0;
        std::vector<pollfd> pfds(conns_.size());
        for (;;) {
            double now = nowUs();
            if (tick)
                tick(now);
            while (next < reqs.size() && reqs[next].schedUs <= now) {
                send(next++);
                now = nowUs();
                if (next == reqs.size())
                    drain_deadline = now + kDrainUs;
            }
            if (next == reqs.size() &&
                (outstanding_ == 0 || now > drain_deadline))
                break;
            const double wait =
                next < reqs.size()
                    ? reqs[next].schedUs - now
                    : std::min(drain_deadline - now, 10000.0);
            for (std::size_t i = 0; i < conns_.size(); ++i) {
                pfds[i].fd = conns_[i].fd;
                pfds[i].events = POLLIN;
                if (conns_[i].outOff < conns_[i].out.size())
                    pfds[i].events |= POLLOUT;
                pfds[i].revents = 0;
            }
            const double w = std::max(0.0, wait);
            timespec ts{static_cast<time_t>(w / 1e6),
                        static_cast<long>(std::fmod(w, 1e6) * 1e3)};
            if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
                continue;
            for (std::size_t i = 0; i < conns_.size(); ++i) {
                if (pfds[i].revents & POLLOUT)
                    flush(conns_[i]);
                if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP))
                    readConn(static_cast<int>(i));
            }
        }
        // Whatever is still outstanding is lost; connections carrying
        // it are no longer in a known state.
        for (auto &c : conns_) {
            if (c.pendingHead < c.pending.size())
                broken = true;
            c.pending.clear();
            c.pendingHead = 0;
        }
        outstanding_ = 0;
        reqs_ = nullptr;
    }

    /** In-flight count sampled at each send of the last run(). */
    std::vector<double> inflightAtSend;
    /** First output-check failure, if any. */
    std::string checkError;
    bool broken = false;

  private:
    struct Conn
    {
        int fd = -1;
        std::vector<std::uint8_t> out;
        std::size_t outOff = 0;
        fa3c::net::RecvBuffer in;
        std::vector<std::size_t> pending; ///< request indices, in order
        std::size_t pendingHead = 0;
    };

    const std::vector<tensor::Tensor> &pool_;
    ServeChecker checker_;
    std::vector<Conn> conns_;
    std::vector<Req> *reqs_ = nullptr;
    std::size_t outstanding_ = 0;
    std::uint64_t nextTag_ = 1;
    std::vector<std::uint8_t> frame_;

    void
    send(std::size_t i)
    {
        Req &r = (*reqs_)[i];
        Conn &c = conns_[static_cast<std::size_t>(r.conn)];
        r.sendUs = nowUs();
        r.tag = nextTag_++;
        const auto obs = pool_[r.obs].data();
        serve::wire::encodeRequest(
            frame_, r.tag,
            static_cast<std::uint32_t>(kDeadlineMs * 1e3), obs.data(),
            obs.size());
        c.out.insert(c.out.end(), frame_.begin(), frame_.end());
        c.pending.push_back(i);
        ++outstanding_;
        inflightAtSend.push_back(static_cast<double>(outstanding_));
        flush(c);
    }

    void
    flush(Conn &c)
    {
        while (c.outOff < c.out.size()) {
            const ssize_t n = ::write(c.fd, c.out.data() + c.outOff,
                                      c.out.size() - c.outOff);
            if (n < 0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
                    broken = true;
                return;
            }
            c.outOff += static_cast<std::size_t>(n);
        }
        c.out.clear();
        c.outOff = 0;
    }

    void
    readConn(int ci)
    {
        Conn &c = conns_[static_cast<std::size_t>(ci)];
        std::uint8_t buf[1 << 16];
        for (;;) {
            const ssize_t n = ::read(c.fd, buf, sizeof buf);
            if (n > 0) {
                c.in.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR))
                broken = true;
            break;
        }
        parse(ci);
        c.in.reclaim();
    }

    void
    parse(int ci)
    {
        namespace wire = serve::wire;
        Conn &c = conns_[static_cast<std::size_t>(ci)];
        const std::size_t prefix = wire::responsePrefixBytes(3);
        while (c.in.avail() >= prefix) {
            const std::uint8_t *p = c.in.data();
            std::uint32_t policy_n = 0;
            std::memcpy(&policy_n, p + prefix - sizeof policy_n,
                        sizeof policy_n);
            const std::size_t len = prefix + policy_n * sizeof(float);
            if (policy_n > 1024 || c.in.avail() < len)
                break;
            const double now = nowUs();
            if (fa3c::net::get<std::uint32_t>(p) != wire::kResponseMagicV3 ||
                c.pendingHead >= c.pending.size()) {
                broken = true;
                return;
            }
            Req &r = (*reqs_)[c.pending[c.pendingHead++]];
            std::uint64_t tag = 0;
            wire::decodeResponseAfterMagic(p, 3, tag, r.resp);
            if (tag != r.tag) {
                broken = true;
                return;
            }
            r.resp.policy.resize(policy_n);
            std::memcpy(r.resp.policy.data(), p, policy_n * sizeof(float));
            c.in.consume(len);
            r.recvUs = now;
            r.done = true;
            --outstanding_;
            std::string why;
            if (!checker_.check(ci, r.obs, r.resp, &why) &&
                checkError.empty())
                checkError = why;
        }
        if (c.pendingHead == c.pending.size()) {
            c.pending.clear();
            c.pendingHead = 0;
        }
    }
};

/** The served program: router, replicas and the TCP front end. */
class ServeStack
{
  public:
    ServeStack(const nn::A3cNetwork &net, const nn::ParamSet &first)
    {
        serve::FleetConfig fc;
        fc.replicas = kReplicas;
        fc.policy = serve::RoutePolicy::LeastLoaded;
        fc.replica.batch.maxBatch = kMaxBatch;
        fc.replica.workers = 1;
        fc.replica.backend = rl::BackendKind::FastCpu;
        router = std::make_unique<serve::ReplicaRouter>(
            net, fc, [this, &net](int) {
                std::lock_guard<std::mutex> lock(probeMutex);
                probes.push_back(std::make_unique<ServeProbe>());
                return std::make_unique<ServeBackend>(
                    rl::makeDnnBackend(rl::BackendKind::FastCpu, net),
                    *probes.back());
            });
        firstVersion = router->publish(first);
        router->start();
        loop = std::make_unique<serve::EventLoopServer>(
            *router, serve::EventLoopConfig{});
        started = loop->start();
    }

    ~ServeStack()
    {
        loop->stop();
        router->stop();
    }

    std::mutex probeMutex;
    std::vector<std::unique_ptr<ServeProbe>> probes; ///< outlive router
    std::unique_ptr<serve::ReplicaRouter> router;
    std::unique_ptr<serve::EventLoopServer> loop;
    std::uint64_t firstVersion = 0;
    bool started = false;
};

/** Reduction of one fixed-rate window of requests. */
struct Window
{
    std::size_t attempted = 0, failed = 0, ok = 0;
    std::size_t shed = 0, rejected = 0, timedOut = 0, late = 0;
    Summary latMs;
    Summary lagUs;
    bool backlogGrowing = false;
};

Window
reduce(const std::vector<Req> &reqs, const std::vector<double> &inflight,
       const std::function<bool(const Req &)> &in)
{
    Window w;
    std::vector<double> lat, lag;
    for (const Req &r : reqs) {
        if (!in(r))
            continue;
        ++w.attempted;
        lag.push_back(r.sendUs - r.schedUs);
        if (r.done) {
            lat.push_back((r.recvUs - r.schedUs) / 1e3);
            switch (r.resp.status) {
              case serve::Status::Ok:
                break;
              case serve::Status::RejectedShed:
                ++w.shed;
                break;
              case serve::Status::TimedOut:
                ++w.timedOut;
                break;
              default:
                ++w.rejected;
            }
            if (r.resp.status == serve::Status::Ok &&
                r.recvUs - r.schedUs > kDeadlineMs * 1e3)
                ++w.late;
        }
        if (r.failed())
            ++w.failed;
        else
            ++w.ok;
    }
    w.latMs = summarize(lat);
    w.lagUs = summarize(lag);
    w.backlogGrowing =
        backlogGrowing(inflight, 1.5, kReplicas * kMaxBatch);
    return w;
}

double
pct(std::size_t part, std::size_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

/** Reference actions for a pool of well-defined observations. */
struct Pool
{
    std::vector<tensor::Tensor> obs;
    std::vector<std::array<int, 2>> ref;
    int excluded = 0;
};

Pool
makePool(const nn::A3cNetwork &net, const nn::ParamSet &a,
         const nn::ParamSet &b, std::uint64_t seed)
{
    Pool pool;
    const nn::NetConfig &nc = net.config();
    auto ref = rl::makeDnnBackend(rl::BackendKind::Reference, net);
    auto act = net.makeActivations();
    sim::Rng rng(seed * 0x2545F4914F6CDD1Dull + 77);
    while (static_cast<int>(pool.obs.size()) < kPoolSize &&
           pool.excluded < 4 * kPoolSize) {
        tensor::Tensor obs(
            tensor::Shape({nc.inChannels, nc.inHeight, nc.inWidth}));
        for (float &v : obs.data())
            v = rng.uniformF();
        std::array<int, 2> actions{};
        bool clear = true;
        for (int s = 0; s < 2; ++s) {
            const nn::ParamSet &p = s == 0 ? a : b;
            ref->forward(p, obs, act);
            const auto logits = net.policyLogits(act);
            clear = clear && top2Margin(logits) >= kMinMargin;
            actions[static_cast<std::size_t>(s)] = argmax(logits);
        }
        if (!clear) {
            ++pool.excluded;
            continue;
        }
        pool.obs.push_back(std::move(obs));
        pool.ref.push_back(actions);
    }
    return pool;
}

} // namespace

Result
runServe(const Options &opt, bool publishing)
{
    Result res;
    const nn::A3cNetwork net(wideNet());
    nn::ParamSet set_a = net.makeParams(), set_b = net.makeParams();
    {
        sim::Rng ra(opt.seed * 2 + 1), rb(opt.seed * 2 + 2);
        net.initParams(set_a, ra);
        net.initParams(set_b, rb);
    }
    const Pool pool = makePool(net, set_a, set_b, opt.seed);
    res.check(static_cast<int>(pool.obs.size()) == kPoolSize,
              "could not build an observation pool without near-ties");
    if (!res.correct)
        return res;

    res.prov("net", "wide (NetConfig::atari(4), fcSize 1024)");
    res.prov("params_mb",
             static_cast<double>(net.paramCount()) * 4.0 / 1e6);
    res.prov("topology", "EventLoopServer -> ReplicaRouter, 2 replicas x "
                         "1 FastCpu worker, max batch 16, least-loaded");
    res.prov("client", "open-loop Poisson, 1 thread, 4 pipelined "
                       "connections, wire v3");
    res.prov("nominal_ips", kNominalIps);
    res.prov("deadline_ms", kDeadlineMs);
    res.prov("publish_every_ms", publishing ? kPublishEveryMs : 0.0);
    res.prov("pool_observations", kPoolSize);
    res.prov("pool_excluded_near_tie", pool.excluded);

    // The nominal-rate window is served by kSetupReps fresh stacks in
    // turn, a share each, every one set up and warmed up anew: thread
    // placement settles per stack, so one run averages several
    // placements. Each share is two segments; the traced run traces the
    // second. In serve_open each stack then climbs its stretch of the
    // capacity ladder, and capacity is the median over stacks.
    Tracer &tracer = Tracer::get();
    const double window_s = publishing || opt.trace ? opt.seconds
                                                    : opt.seconds * 0.4;
    const double share_s = window_s / kSetupReps;
    std::vector<double> setup_s, stack_p50, stack_capacity;
    std::string ladders = "[";
    std::unique_ptr<ServeStack> stack;
    std::unique_ptr<OpenLoopClient> client;
    std::vector<Req> reqs;
    struct Pub
    {
        int seg;
        double us;
    };
    std::vector<Pub> pubs;
    bool backlog = false;
    sim::Rng rng(opt.seed);
    const auto check_client = [&](const char *phase_name) {
        res.check(client->checkError.empty(),
                  std::string(phase_name) + ": " + client->checkError);
        res.check(!client->broken,
                  std::string(phase_name) + ": transport error");
    };
    const std::size_t n_rungs = std::size(kLadderIps);
    // One rung on the current stack: a fixed rate after a full drain.
    std::string ladder;
    const auto measure_rung = [&](std::size_t i) {
        const double ips = kLadderIps[i];
        const double rung_s =
            std::max(opt.seconds / 40, kRungMinRequests / ips);
        std::vector<Req> rung_reqs =
            poissonPlan(rng, nowUs() + 20000.0, ips, rung_s, 1);
        client->run(rung_reqs, {});
        check_client("capacity ladder");
        const Window w = reduce(rung_reqs, client->inflightAtSend,
                                [](const Req &) { return true; });
        Rung r;
        r.rateIps = ips;
        r.p99Ms = w.latMs.p99;
        r.p99Valid = w.latMs.p99Valid;
        r.failPct = pct(w.failed, w.attempted);
        r.backlogGrowing = w.backlogGrowing;
        r.generatorValid = w.lagUs.p99 <= kMaxGenLagUs;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s{\"ips\": %.0f, \"p99_ms\": %.3f, "
                      "\"fail_pct\": %.3f, \"backlog\": %d, "
                      "\"gen_ok\": %d}",
                      ladder.size() > 1 ? ", " : "", ips, r.p99Ms, r.failPct,
                      r.backlogGrowing ? 1 : 0, r.generatorValid ? 1 : 0);
        ladder += buf;
        return r;
    };
    // Capacity of the current stack from rung @p from: climb to the
    // first failing rung or, if rung @p from already fails, walk down
    // to the first that passes. A stall of the shared host that fails
    // one stack's rung early moves only that stack's figure.
    const auto climb = [&](std::size_t from) {
        ladder = "[";
        std::vector<Rung> rungs{measure_rung(from)};
        if (rungPasses(rungs.back())) {
            for (std::size_t i = from + 1;
                 i < n_rungs && rungPasses(rungs.back()); ++i)
                rungs.push_back(measure_rung(i));
        } else {
            for (std::size_t i = from; i > 0 && !rungPasses(rungs.front());)
                rungs.insert(rungs.begin(), measure_rung(--i));
        }
        ladders += (ladders.size() > 1 ? ", " : "") + ladder + "]";
        return capacityFromLadder(rungs);
    };
    // Rung index two below the highest ladder rate <= @p ips.
    const auto two_below = [&](double ips) {
        std::size_t i = 0;
        while (i + 1 < n_rungs && kLadderIps[i + 1] <= ips)
            ++i;
        return i < 2 ? std::size_t{0} : i - 2;
    };
    for (int rep = 0; rep < kSetupReps; ++rep) {
        client.reset();
        stack.reset();
        g_phase.store(kWarmup);
        const double t0 = nowUs();
        stack = std::make_unique<ServeStack>(net, set_a);
        const bool started = stack->started && stack->firstVersion == 1;
        res.check(started, "serving stack failed to start");
        if (!started)
            return res;
        client = std::make_unique<OpenLoopClient>(
            pool.obs, ServeChecker(pool.ref, kConnections));
        const bool connected = client->connect(stack->loop->port());
        res.check(connected, "client could not connect");
        if (!connected)
            return res;
        // Warm-up burst (first stagings, first batches), then the
        // first operation after warm-up ends the set-up time.
        std::vector<Req> warm(kWarmupRequests + 1);
        const double now = nowUs();
        for (std::size_t i = 0; i < warm.size(); ++i) {
            warm[i].schedUs = now;
            warm[i].obs = static_cast<std::uint32_t>(i % kPoolSize);
            warm[i].conn = static_cast<int>(i % kConnections);
        }
        Req last = warm.back();
        warm.pop_back();
        client->run(warm, {});
        last.schedUs = nowUs();
        std::vector<Req> first{last};
        client->run(first, {});
        setup_s.push_back((nowUs() - t0) / 1e6);
        const bool served = first[0].done &&
                            first[0].resp.status == serve::Status::Ok;
        res.check(served, "first request after warm-up failed");
        check_client("warm-up");
        if (!served)
            return res;

        // --- this stack's share of the nominal-rate window ----------
        const double start = nowUs() + 1000.0;
        std::vector<Req> part =
            poissonPlan(rng, start, kNominalIps, share_s, 2);
        for (Req &r : part)
            r.seg += 2 * rep;
        const auto tick = [&](double t) {
            const int j = std::clamp(
                static_cast<int>((t - start) / (share_s * 5e5)), 0, 2);
            const int seg = j < 2 ? 2 * rep + j : kDone;
            if (t < start || seg == phase())
                return;
            g_phase.store(seg);
            tracer.setOn(opt.trace && j == 1);
        };
        std::atomic<bool> pub_stop{false};
        std::string pub_error;
        std::thread publisher;
        if (publishing)
            publisher = std::thread([&] {
                double next = start;
                for (std::uint64_t k = 0; !pub_stop.load(); ++k) {
                    next += kPublishEveryMs * 1e3;
                    std::this_thread::sleep_for(std::chrono::microseconds(
                        static_cast<long>(std::max(0.0, next - nowUs()))));
                    if (pub_stop.load())
                        break;
                    const int seg = phase();
                    const double p0 = nowUs();
                    const std::uint64_t v =
                        stack->router->publish(k % 2 == 0 ? set_b : set_a);
                    pubs.push_back({seg, nowUs() - p0});
                    if (v != 2 + k && pub_error.empty())
                        pub_error = "publish returned version " +
                                    std::to_string(v) + ", expected " +
                                    std::to_string(2 + k);
                }
            });
        client->run(part, tick);
        pub_stop.store(true);
        if (publisher.joinable())
            publisher.join();
        g_phase.store(kDone);
        tracer.setOn(false);
        check_client("measured window");
        res.check(pub_error.empty(), pub_error);
        backlog = backlog || backlogGrowing(client->inflightAtSend, 1.5,
                                            kReplicas * kMaxBatch);
        stack_p50.push_back(
            reduce(part, {}, [](const Req &) { return true; }).latMs.p50);
        reqs.insert(reqs.end(), part.begin(), part.end());
        if (!publishing && !opt.trace)
            stack_capacity.push_back(climb(two_below(
                stack_capacity.empty() ? kRefCapacityIps
                                       : median(stack_capacity))));
    }

    const Window all = reduce(reqs, {}, [](const Req &) { return true; });
    res.attempted = std::max<std::size_t>(all.attempted, 1);
    res.failed = all.failed;
    res.check(all.latMs.p99Valid,
              "fewer than 1000 answered requests for a p99");
    res.check(all.lagUs.p99 <= kMaxGenLagUs,
              "generator fell behind: send lag p99 " +
                  std::to_string(all.lagUs.p99) + " us");
    res.check(!backlog, "backlog grew at the nominal rate");

    auto &M = res.metrics;
    M["setup_s"] = median(setup_s);
    M["ok_pct"] = 100.0 - pct(all.failed, all.attempted);
    // Median over stacks of each stack's p50, for the same reason as
    // the training step rate: one placement moves it no more than any.
    M["latency_p50_ms"] = median(stack_p50);
    M["latency_p99_ms"] = all.latMs.p99;
    res.prov("req_p50_ms", M["latency_p50_ms"]);
    res.prov("req_p99_ms", all.latMs.p99);
    res.prov("req_samples", static_cast<double>(all.latMs.n));
    res.prov("stack_req_p50_ms", stack_p50);
    res.prov("fail_pct", pct(all.failed, all.attempted));
    res.prov("gen_lag_us_p99", all.lagUs.p99);

    std::vector<double> pub_us;
    for (const Pub &p : pubs)
        if (measured(p.seg))
            pub_us.push_back(p.us);

    if (publishing) {
        const double goodput = static_cast<double>(all.ok) / window_s;
        M["ips"] = goodput;
        M["param_update_p50_ms"] = median(pub_us) / 1e3;
        res.prov("goodput_ips", goodput);
        res.prov("publishes", static_cast<double>(pub_us.size()));
        res.prov("publish_p50_ms", median(pub_us) / 1e3);
        res.check(pub_us.size() >= 10, "fewer than 10 publishes");
    } else if (!opt.trace) {
        const double capacity = median(stack_capacity);
        res.provenance.emplace_back("ladders", ladders + "]");
        res.prov("stack_capacity_ips", stack_capacity);
        res.prov("capacity_ips", capacity);
        res.check(capacity > 0, "lowest ladder rate already fails");
        M["ips"] = capacity;
    }
    if (!publishing) {
        // Publish cost without traffic: median of quiet hot-swaps.
        std::vector<double> quiet;
        for (int k = 0; k < kQuietPublishes; ++k) {
            const double t0 = nowUs();
            stack->router->publish(k % 2 == 0 ? set_b : set_a);
            quiet.push_back(nowUs() - t0);
        }
        M["param_update_p50_ms"] = median(quiet) / 1e3;
        res.prov("quiet_publish_p50_ms", median(quiet) / 1e3);
    }
    M["rss_mb"] = peakRssMb();

    if (!opt.trace)
        return res;

    // --- traced run: per-layer ledger over traced requests ----------
    std::vector<double> wire, queue;
    double total = 0, t_wire = 0, t_queue = 0, t_infer = 0, t_rest = 0;
    for (const Req &r : reqs) {
        if (r.seg % 2 != 1 || !r.done ||
            r.resp.status != serve::Status::Ok)
            continue;
        const double rtt = r.recvUs - r.sendUs;
        const double w = rtt - r.resp.totalUs;
        const double rest =
            r.resp.totalUs - r.resp.queueUs - r.resp.inferUs;
        wire.push_back(w);
        queue.push_back(r.resp.queueUs);
        total += r.recvUs - r.schedUs;
        t_wire += w;
        t_queue += r.resp.queueUs;
        t_infer += r.resp.inferUs;
        t_rest += rest;
        // Request spans laid end to end from the measured fields:
        // client lag, half the wire time out, queue, inference, the
        // server's remaining time, half the wire time back.
        const std::uint64_t root = tracer.newId();
        double t = r.schedUs;
        const std::pair<const char *, double> parts[] = {
            {"client.send_lag", r.sendUs - r.schedUs},
            {"serve.wire_out", w / 2},
            {"serve.queue", r.resp.queueUs},
            {"nn.infer", r.resp.inferUs},
            {"serve.complete", rest},
            {"serve.wire_back", w / 2}};
        for (const auto &[name, d] : parts) {
            const char *layer = name[0] == 'c' ? "client"
                                : name[0] == 'n' ? "nn"
                                                 : "serve";
            emitSpan(true, name, layer, t, t + d, root, root);
            t += d;
        }
        Span s;
        s.name = "client.request";
        s.layer = "client";
        s.startUs = r.schedUs;
        s.durUs = r.recvUs - r.schedUs;
        s.id = s.group = root;
        tracer.record(s);
    }
    const Closure c = closeLedger({{"env", 0.0},
                                   {"nn", t_infer},
                                   {"rl", 0.0},
                                   {"dist", 0.0},
                                   {"serve", t_wire + t_queue + t_rest}},
                                  total);
    for (const auto &[layer, p] : c.sharePct)
        M[layer + ".share_pct"] = p;
    M["unattributed_pct"] = c.unattributedPct;
    const Summary ws = summarize(wire), qs = summarize(queue);
    M["serve.wire_us_p50"] = ws.p50;
    M["serve.wire_us_p99"] = ws.p99;
    M["serve.queue_us_p50"] = qs.p50;
    M["serve.queue_us_p99"] = qs.p99;

    std::vector<double> batch_us;
    double batch_sum_us = 0, batch_reqs = 0;
    std::vector<double> stage_us;
    for (const auto &p : stack->probes) {
        for (const BatchRec &b : p->batches) {
            if (!b.traced)
                continue;
            batch_us.push_back(b.durUs);
            batch_sum_us += b.durUs;
            batch_reqs += b.size;
        }
        for (const auto &[seg, us] : p->stages)
            if (measured(seg))
                stage_us.push_back(us);
    }
    M["rl.stage_us_p50"] = median(stage_us);
    M["nn.fw_batch_us_p50"] = median(batch_us);
    if (batch_reqs > 0) {
        M["nn.fw_batch_us_per_req"] = batch_sum_us / batch_reqs;
        M["serve.batch_mean"] =
            batch_reqs / static_cast<double>(batch_us.size());
        M["serve.batch_fill_pct"] = 100.0 * M["serve.batch_mean"] / kMaxBatch;
    }
    M["serve.shed_pct"] = pct(all.shed, all.attempted);
    M["serve.reject_pct"] = pct(all.rejected, all.attempted);
    M["serve.timeout_pct"] = pct(all.timedOut + all.late, all.attempted);
    if (!pub_us.empty()) {
        M["serve.stages_per_publish"] =
            static_cast<double>(stage_us.size()) /
            static_cast<double>(pub_us.size());
        M["serve.publish_us_p99"] = summarize(pub_us).p99;
    }
    M["fail_pct"] = pct(all.failed, all.attempted);
    M["gen.lag_us_p99"] = all.lagUs.p99;

    // Overhead on the headline latency: untraced vs traced segments.
    std::vector<double> lat_u, lat_t;
    for (const Req &r : reqs)
        if (r.done && r.resp.status == serve::Status::Ok)
            (r.seg % 2 ? lat_t : lat_u)
                .push_back((r.recvUs - r.schedUs) / 1e3);
    const double mu = median(lat_u), mt = median(lat_t);
    if (mu > 0)
        M["trace_overhead_pct"] = 100.0 * (mt - mu) / mu;
    return res;
}

} // namespace perfbench
