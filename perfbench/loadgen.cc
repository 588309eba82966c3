// perfbench_loadgen: the client side of perfbench/run.py.
//
// Drive mode (default): one thread, one TCP connection per replica, and a
// seeded open-loop Poisson schedule. Every operation is timed from the
// instant the schedule says it is due, so a stall in the cluster (or in this
// generator) shows up in the latency of every operation queued behind it.
//
//   perfbench_loadgen --peers h:p,h:p,h:p --rate R --read-fraction F
//                     --keys K --warmup-s W --seconds S --seed N
//
// It prints STARTED and then waits for one line `GO <pid0>,<pid1>,...` on
// stdin, naming the replica processes whose CPU it measures, before it dials.
// So the replicas can be started (and timed) after the generator is running.
//
// Input make-up (identical for identical seeds): exponential inter-arrival
// gaps at rate R; each op is a get with probability F, else a put; keys are
// uniform over K keys; key k has exactly one writer, connection k % 3; gets
// go to a uniformly chosen connection. Every put's value is its connection's
// sequence number, padded to 64 bytes, so any value read back names the put
// that wrote it.
//
// stdout protocol, one line each, consumed by run.py:
//   STARTED                      waiting for GO on stdin
//   READY <CLOCK_MONOTONIC ns>   every replica has answered a probe read
//   WINDOW_START / WINDOW_END    the measurement window opens / closes
//   RESULT <json>                counts, latencies, CPU and check outcomes
//
// Checks, against a model built only from what this process sent and saw
// acknowledged: the final state scanned at every replica equals the last
// value written per key; every get returns a put between the last one
// acknowledged before the get was sent and the last one sent before its
// reply arrived. As a positive control both checks are re-run on a model
// with one write dropped, and must then fail.
//
// Micro mode (--micro DIR): times calls into the program's public functions
// on the same workload's inputs — frame encode/decode, batch envelope
// make/split, KvStore apply/apply_read, FileLog append and fdatasync in DIR —
// and prints one RESULT line.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/batch.h"
#include "common/message.h"
#include "kv/kv_store.h"
#include "net/frame_conn.h"
#include "storage/command_log.h"

namespace {

using crsm::Command;
using crsm::KvOp;
using crsm::KvRequest;
using crsm::Message;
using crsm::MsgType;

constexpr std::size_t kValueBytes = 64;
constexpr crsm::ClientId kClientBase = 7000;  // client id = base + connection
constexpr std::int64_t kDrainTimeoutNs = 15'000'000'000;
constexpr std::int64_t kReadyTimeoutNs = 30'000'000'000;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", what.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Op {
  std::int64_t due_ns = 0;  // offset from the schedule's start
  std::uint32_t key = 0;
  std::uint8_t conn = 0;
  bool get = false;
  std::uint64_t seq = 0;  // per-connection request sequence number
  std::int64_t sent_ns = -1;
  std::int64_t reply_ns = -1;
  std::uint64_t sent_ev = 0;   // generator event counter at send
  std::uint64_t reply_ev = 0;  // ... and at reply
  std::uint64_t read_seq = 0;  // gets: writer seq in the value (0 = absent)
  bool bad = false;            // malformed or unexpected reply
};

struct Workload {
  double rate = 20000;
  double read_fraction = 0;
  std::uint32_t keys = 1000;
  std::uint32_t conns = 3;
  double warmup_s = 2;
  double seconds = 10;
  std::uint64_t seed = 1;
};

// The schedule is a pure function of the workload: std::mt19937_64's output
// sequence is fixed by the standard, and the distributions are spelled out
// here rather than taken from <random>, whose algorithms are unspecified.
std::vector<Op> make_schedule(const Workload& w) {
  std::mt19937_64 g(w.seed);
  auto u01 = [&g] { return static_cast<double>(g() >> 11) * 0x1.0p-53; };
  std::vector<std::uint64_t> next_seq(w.conns, 0);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(w.rate * (w.warmup_s + w.seconds) * 1.05));
  const double end_ns = (w.warmup_s + w.seconds) * 1e9;
  double t = 0;
  for (;;) {
    t += -std::log1p(-u01()) / w.rate * 1e9;
    if (t >= end_ns) break;
    Op op;
    op.due_ns = static_cast<std::int64_t>(t);
    op.get = u01() < w.read_fraction;
    op.key = static_cast<std::uint32_t>(g() % w.keys);
    op.conn = static_cast<std::uint8_t>(op.get ? g() % w.conns : op.key % w.conns);
    op.seq = ++next_seq[op.conn];
    ops.push_back(op);
  }
  return ops;
}

std::string key_name(std::uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04u", k);
  return buf;
}

std::string put_value(std::uint32_t conn, std::uint64_t seq) {
  char buf[kValueBytes + 1];
  std::snprintf(buf, sizeof(buf), "w%u:%016llu", conn,
                static_cast<unsigned long long>(seq));
  std::string v(buf);
  v.resize(kValueBytes, '.');
  return v;
}

// Writer seq named by a stored value; 0 for an absent key. Returns false if
// the value was not written by `writer`.
bool parse_value(std::string_view v, std::uint32_t writer, std::uint64_t* seq) {
  if (v.empty()) {
    *seq = 0;
    return true;
  }
  if (v.size() != kValueBytes) return false;
  unsigned conn = 0;
  unsigned long long s = 0;
  if (std::sscanf(std::string(v.substr(0, 20)).c_str(), "w%u:%16llu", &conn, &s) != 2) {
    return false;
  }
  if (conn != writer || s == 0) return false;
  *seq = s;
  return true;
}

Command op_command(const Op& op) {
  KvRequest r;
  r.op = op.get ? KvOp::kGet : KvOp::kPut;
  r.key = key_name(op.key);
  if (!op.get) r.value = put_value(op.conn, op.seq);
  Command c;
  c.client = kClientBase + op.conn;
  c.seq = op.seq;
  c.payload = crsm::Bytes(r.encode());
  return c;
}

Message op_message(const Op& op) {
  Message m;
  m.type = op.get ? MsgType::kClientRead : MsgType::kClientRequest;
  m.cmd = op_command(op);
  return m;
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

struct Conn {
  int fd = -1;
  crsm::net::FrameAssembler in;
  std::string out;
};

std::pair<std::string, std::uint16_t> parse_endpoint(const std::string& e) {
  const std::size_t colon = e.rfind(':');
  if (colon == std::string::npos) die("bad endpoint " + e);
  return {e.substr(0, colon),
          static_cast<std::uint16_t>(std::stoul(e.substr(colon + 1)))};
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Blocking connect (retrying while the node is not listening yet) plus the
// hello exchange; the socket is non-blocking afterwards.
int dial(const std::string& endpoint, std::int64_t deadline_ns) {
  const auto [host, port] = parse_endpoint(endpoint);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) die("bad host " + host);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) die("socket failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::string hello = crsm::net::encode_hello(crsm::net::kClientHello);
      if (::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(hello.size())) {
        die("hello send to " + endpoint + " failed");
      }
      char buf[8];
      std::size_t got = 0;
      while (got < sizeof(buf)) {
        const ssize_t n = ::recv(fd, buf + got, sizeof(buf) - got, 0);
        if (n <= 0) die("no hello from " + endpoint);
        got += static_cast<std::size_t>(n);
      }
      std::uint32_t id = 0;
      if (!crsm::net::parse_hello(std::string_view(buf, 8), &id)) {
        die("bad hello from " + endpoint);
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      return fd;
    }
    ::close(fd);
    if (mono_ns() > deadline_ns) die("cannot connect to " + endpoint);
    ::usleep(1000);
  }
}

bool flush(Conn& c) {
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    c.out.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

// Reads what is available; false on EOF or error.
bool pump(Conn& c) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR) return false;
  }
}

template <typename F>
void for_each_frame(Conn& c, F&& f) {
  const std::string_view frames = c.in.complete_prefix();
  std::size_t pos = 0;
  while (pos < frames.size()) f(Message::decode_stream_view(frames, &pos));
  c.in.consume(pos);
}

// One read on every connection at once, answered outside any schedule: the
// readiness probe and the final scan. Returns the reply blobs by connection.
std::vector<std::string> read_all(std::vector<Conn>& conns, const KvRequest& r,
                                  std::uint64_t seq, std::int64_t deadline_ns) {
  for (std::uint32_t c = 0; c < conns.size(); ++c) {
    Message m;
    m.type = MsgType::kClientRead;
    m.cmd.client = kClientBase + c;
    m.cmd.seq = seq;
    m.cmd.payload = crsm::Bytes(r.encode());
    m.encode(&conns[c].out);
  }
  std::vector<std::string> blobs(conns.size());
  std::vector<bool> done(conns.size(), false);
  std::size_t left = conns.size();
  std::vector<pollfd> pfds(conns.size());
  while (left > 0) {
    for (std::uint32_t c = 0; c < conns.size(); ++c) {
      if (!flush(conns[c])) die("send failed");
      pfds[c] = pollfd{conns[c].fd,
                       static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT)), 0};
    }
    if (::poll(pfds.data(), pfds.size(), 10) < 0 && errno != EINTR) die("poll failed");
    for (std::uint32_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!pump(conns[c])) die("connection closed during a read");
      for_each_frame(conns[c], [&](const Message& reply) {
        if (!done[c] && reply.type == MsgType::kClientReadReply && reply.cmd.seq == seq) {
          blobs[c] = reply.blob.str();
          done[c] = true;
          --left;
        }
      });
    }
    if (left > 0 && mono_ns() > deadline_ns) die("read timed out");
  }
  return blobs;
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

// utime + stime of a process (all threads), in microseconds.
double proc_cpu_us(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields after the ")" closing comm: state is field 3; utime/stime are
  // fields 14 and 15.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0;
  }
  return static_cast<double>(utime + stime) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

// The model: per key, the puts this generator issued, in the writer's
// send order (which is seq order: one writer per key).
struct Model {
  std::vector<std::vector<const Op*>> puts;  // by key
};

Model build_model(const std::vector<Op>& ops, std::uint32_t keys,
                  const Op* dropped) {
  Model m;
  m.puts.resize(keys);
  for (const Op& op : ops) {
    if (!op.get && &op != dropped) m.puts[op.key].push_back(&op);
  }
  return m;
}

// Every get's value must be a put to its key that the model knows, no older
// than the last put acknowledged before the get was sent and no newer than
// the last put sent before the get's reply arrived. Returns violations.
std::size_t check_reads(const std::vector<Op>& ops, const Model& m) {
  std::size_t bad = 0;
  for (const Op& op : ops) {
    if (!op.get || op.reply_ns < 0 || op.bad) continue;
    std::uint64_t lo = 0, hi = 0;
    bool known = op.read_seq == 0;
    for (const Op* p : m.puts[op.key]) {
      if (p->reply_ns >= 0 && p->reply_ev < op.sent_ev) lo = std::max(lo, p->seq);
      if (p->sent_ns >= 0 && p->sent_ev < op.reply_ev) hi = std::max(hi, p->seq);
      if (p->seq == op.read_seq) known = true;
    }
    if (!known || op.read_seq < lo || op.read_seq > hi) ++bad;
  }
  return bad;
}

// Expected final value of every key: the model's last put (all were
// acknowledged before the scan).
std::map<std::string, std::string> final_state(const Model& m) {
  std::map<std::string, std::string> out;
  for (std::uint32_t k = 0; k < m.puts.size(); ++k) {
    if (m.puts[k].empty()) continue;
    const Op* last = m.puts[k].back();
    out[key_name(k)] = put_value(last->conn, last->seq);
  }
  return out;
}

std::size_t check_final(const std::vector<std::map<std::string, std::string>>& scans,
                        const Model& m) {
  const auto want = final_state(m);
  std::size_t bad = 0;
  for (const auto& got : scans) {
    if (got != want) ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Drive mode
// ---------------------------------------------------------------------------

int drive(const Workload& w, const std::vector<std::string>& peers) {
  if (peers.size() != w.conns) die("need one peer per connection");
  std::printf("STARTED\n");
  std::fflush(stdout);
  char go[512];
  if (std::fgets(go, sizeof(go), stdin) == nullptr || std::strncmp(go, "GO ", 3) != 0) {
    die("expected GO <pids> on stdin");
  }
  std::vector<int> node_pids;
  try {
    for (const std::string& p : split(std::string(go + 3), ',')) node_pids.push_back(std::stoi(p));
  } catch (const std::exception&) {
    die("bad GO line");
  }

  std::vector<Conn> conns(w.conns);
  const std::int64_t ready_deadline = mono_ns() + kReadyTimeoutNs;
  for (std::uint32_t c = 0; c < w.conns; ++c) conns[c].fd = dial(peers[c], ready_deadline);
  // Readiness: a stability-gated read answers only once the replica hears
  // every peer's clock, so one reply per replica means the cluster is up.
  KvRequest probe;
  probe.op = KvOp::kGet;
  probe.key = "probe";
  const std::uint64_t probe_seq = 1ull << 40;  // outside the schedule's seqs
  (void)read_all(conns, probe, probe_seq, ready_deadline);
  std::printf("READY %lld\n", static_cast<long long>(mono_ns()));
  std::fflush(stdout);

  // Inputs are made after READY, so setup_s measures the cluster alone.
  std::vector<Op> ops = make_schedule(w);
  // ops index by (conn, seq): seqs are dense per connection.
  std::vector<std::vector<std::uint32_t>> by_seq(w.conns, std::vector<std::uint32_t>(1));
  for (std::uint32_t i = 0; i < ops.size(); ++i) by_seq[ops[i].conn].push_back(i);

  const std::int64_t start = mono_ns() + 1'000'000;
  const std::int64_t win_lo = static_cast<std::int64_t>(w.warmup_s * 1e9);
  const std::int64_t win_hi = win_lo + static_cast<std::int64_t>(w.seconds * 1e9);
  std::uint64_t ev = 0;
  std::size_t next = 0, outstanding = 0;
  int window = 0;  // 0 before, 1 inside, 2 after
  std::vector<double> cpu0(node_pids.size()), cpu1(node_pids.size());
  double self0 = 0, self1 = 0;
  std::size_t completed_in_window = 0;
  std::int64_t drain_deadline = 0;
  std::vector<pollfd> pfds(w.conns);

  auto on_reply = [&](std::uint32_t c, const Message& m) {
    if (m.type != MsgType::kClientReply && m.type != MsgType::kClientReadReply) return;
    if (m.cmd.client != kClientBase + c || m.cmd.seq == 0 ||
        m.cmd.seq >= by_seq[c].size()) {
      return;  // probe or foreign reply
    }
    Op& op = ops[by_seq[c][m.cmd.seq]];
    if (op.reply_ns >= 0 || op.sent_ns < 0) {
      op.bad = true;
      return;
    }
    op.reply_ns = mono_ns();
    op.reply_ev = ++ev;
    --outstanding;
    if (op.reply_ns - start >= win_lo && op.reply_ns - start < win_hi) ++completed_in_window;
    if (op.get) {
      if (m.type != MsgType::kClientReadReply ||
          !parse_value(m.blob.view(), op.key % w.conns, &op.read_seq)) {
        op.bad = true;
      }
    } else if (m.type != MsgType::kClientReply || m.blob.view() != "OK") {
      op.bad = true;
    }
  };

  for (;;) {
    std::int64_t now = mono_ns();
    const std::int64_t t = now - start;
    if (window == 0 && t >= win_lo) {
      for (std::size_t i = 0; i < node_pids.size(); ++i) cpu0[i] = proc_cpu_us(node_pids[i]);
      self0 = self_cpu_us();
      window = 1;
      std::printf("WINDOW_START\n");
      std::fflush(stdout);
    } else if (window == 1 && t >= win_hi) {
      for (std::size_t i = 0; i < node_pids.size(); ++i) cpu1[i] = proc_cpu_us(node_pids[i]);
      self1 = self_cpu_us();
      window = 2;
      std::printf("WINDOW_END\n");
      std::fflush(stdout);
      drain_deadline = now + kDrainTimeoutNs;
    }
    while (next < ops.size() && start + ops[next].due_ns <= now) {
      Op& op = ops[next++];
      op_message(op).encode(&conns[op.conn].out);
      op.sent_ns = now;
      op.sent_ev = ++ev;
      ++outstanding;
    }
    for (std::uint32_t c = 0; c < w.conns; ++c) {
      if (!flush(conns[c])) die("send to replica " + std::to_string(c) + " failed");
    }
    if (window == 2 && next == ops.size() &&
        (outstanding == 0 || now > drain_deadline)) {
      break;
    }
    // Sleep only when the next send is far off; otherwise spin so sends
    // leave on time (this thread owns its core).
    int timeout_ms = 1;
    if (next < ops.size()) {
      const std::int64_t gap = start + ops[next].due_ns - now;
      timeout_ms = gap > 2'000'000 ? static_cast<int>(gap / 1'000'000) - 1 : 0;
    }
    for (std::uint32_t c = 0; c < w.conns; ++c) {
      pfds[c] = pollfd{conns[c].fd,
                       static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT)), 0};
    }
    if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0 && errno != EINTR) die("poll failed");
    for (std::uint32_t c = 0; c < w.conns; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!pump(conns[c])) die("replica " + std::to_string(c) + " closed the connection");
      for_each_frame(conns[c], [&](const Message& m) { on_reply(c, m); });
    }
  }

  // Final state, scanned at every replica after the drain.
  const std::int64_t scan_deadline = mono_ns() + kReadyTimeoutNs;
  KvRequest scan;
  scan.op = KvOp::kScan;
  scan.key = "k";
  std::vector<std::map<std::string, std::string>> scans;
  for (const std::string& blob : read_all(conns, scan, probe_seq + 1, scan_deadline)) {
    std::map<std::string, std::string> got;
    for (auto& [k, v] : KvRequest::decode_scan_result(blob)) got[k] = v;
    scans.push_back(std::move(got));
  }
  for (Conn& c : conns) ::close(c.fd);

  // Counts and latencies. An op fails if it got no reply or a malformed one;
  // a malformed one (a put not answered OK, a get value not written by the
  // key's writer, a second reply) is also a wrong output, reported apart.
  std::size_t failed = 0, bad_replies = 0, puts_acked = 0, gets = 0;
  std::vector<double> lat_ms, lag_ms;
  for (const Op& op : ops) {
    const bool ok = op.reply_ns >= 0 && !op.bad;
    if (!ok) ++failed;
    if (op.bad) ++bad_replies;
    if (ok && !op.get) ++puts_acked;
    if (op.get) ++gets;
    if (op.due_ns >= win_lo && op.due_ns < win_hi) {
      lag_ms.push_back(static_cast<double>(op.sent_ns - (start + op.due_ns)) / 1e6);
      if (ok) lat_ms.push_back(static_cast<double>(op.reply_ns - (start + op.due_ns)) / 1e6);
    }
  }

  // p50 and p90 are medians over the window's one-second slices of each
  // slice's percentile: a disk stall on the shared host moves one slice,
  // not the run. p99 is over the whole window and is reported unbounded.
  std::vector<double> slice_p50, slice_p90;
  for (std::int64_t s0 = win_lo; s0 < win_hi; s0 += 1'000'000'000) {
    std::vector<double> slice;
    for (const Op& op : ops) {
      if (op.due_ns >= s0 && op.due_ns < s0 + 1'000'000'000 && op.reply_ns >= 0 && !op.bad) {
        slice.push_back(static_cast<double>(op.reply_ns - (start + op.due_ns)) / 1e6);
      }
    }
    slice_p50.push_back(percentile(slice, 50));
    slice_p90.push_back(percentile(slice, 90));
  }
  const Model model = build_model(ops, w.keys, nullptr);
  const std::size_t read_violations = check_reads(ops, model);
  const std::size_t final_mismatches = check_final(scans, model);
  // Positive control: forget the last put of the schedule. The replicas
  // hold its value, so the same checks must now fail.
  const Op* last_put = nullptr;
  for (const Op& op : ops) {
    if (!op.get && op.reply_ns >= 0) last_put = &op;
  }
  bool control_caught = false;
  if (last_put != nullptr) {
    const Model broken = build_model(ops, w.keys, last_put);
    control_caught = check_reads(ops, broken) + check_final(scans, broken) > 0;
  }

  double server_cpu = 0;
  for (std::size_t i = 0; i < node_pids.size(); ++i) server_cpu += cpu1[i] - cpu0[i];
  const double done = static_cast<double>(std::max<std::size_t>(completed_in_window, 1));
  std::printf(
      "RESULT {\"attempted\": %zu, \"failed\": %zu, \"bad_replies\": %zu, "
      "\"puts_acked\": %zu, "
      "\"gets\": %zu, \"window_ops\": %zu, \"completed_in_window\": %zu, "
      "\"op_p50_ms\": %.6f, \"op_p90_ms\": %.6f, \"op_p99_ms\": %.6f, "
      "\"send_lag_p50_ms\": %.6f, \"send_lag_p99_ms\": %.6f, "
      "\"server_cpu_us\": %.1f, \"server_cpu_us_per_op\": %.6f, "
      "\"client_cpu_us_per_op\": %.6f, \"read_violations\": %zu, "
      "\"final_mismatches\": %zu, \"control_caught\": %s, "
      "\"keys_written\": %zu}\n",
      ops.size(), failed, bad_replies, puts_acked, gets, lag_ms.size(), completed_in_window,
      percentile(slice_p50, 50), percentile(slice_p90, 50), percentile(lat_ms, 99),
      percentile(lag_ms, 50), percentile(lag_ms, 99), server_cpu, server_cpu / done,
      (self1 - self0) / done, read_violations, final_mismatches,
      control_caught ? "true" : "false", final_state(model).size());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Micro mode
// ---------------------------------------------------------------------------

// Runs `body` (which processes `items` items) until at least `min_s` has
// passed; returns ns per item of the fastest repetition.
template <typename F>
double time_per_item(std::size_t items, double min_s, F&& body) {
  double best = 1e300;
  const std::int64_t until = mono_ns() + static_cast<std::int64_t>(min_s * 1e9);
  int reps = 0;
  do {
    const std::int64_t t0 = mono_ns();
    body();
    const std::int64_t t1 = mono_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / static_cast<double>(items));
    ++reps;
  } while (mono_ns() < until || reps < 3);
  return best;
}

int micro(const Workload& w, const std::string& dir) {
  std::vector<Op> ops = make_schedule(w);
  if (ops.size() > 20000) ops.resize(20000);
  std::vector<Message> msgs;
  std::vector<Command> puts, gets;
  for (const Op& op : ops) {
    msgs.push_back(op_message(op));
    (op.get ? gets : puts).push_back(msgs.back().cmd);
  }
  // A put-only workload still has the keys a read would ask for.
  if (gets.empty()) {
    for (Op op : ops) {
      op.get = true;
      gets.push_back(op_command(op));
    }
  }
  volatile std::size_t sink = 0;

  std::string wire;
  const double encode_ns = time_per_item(msgs.size(), 0.2, [&] {
    wire.clear();
    for (const Message& m : msgs) m.encode(&wire);
    sink = sink + wire.size();
  });
  const double decode_ns = time_per_item(msgs.size(), 0.2, [&] {
    std::size_t pos = 0;
    while (pos < wire.size()) sink = sink + Message::decode_stream_view(wire, &pos).cmd.seq;
  });

  constexpr std::size_t kBatch = 16;
  std::vector<std::vector<Command>> groups;
  for (std::size_t i = 0; i < puts.size(); i += kBatch) {
    groups.emplace_back(puts.begin() + static_cast<std::ptrdiff_t>(i),
                        puts.begin() + static_cast<std::ptrdiff_t>(std::min(i + kBatch, puts.size())));
  }
  std::vector<Command> envelopes(groups.size());
  const double make_ns = time_per_item(puts.size(), 0.2, [&] {
    for (std::size_t i = 0; i < groups.size(); ++i) envelopes[i] = crsm::make_batch(groups[i], 0, i);
  });
  const double split_ns = time_per_item(puts.size(), 0.2, [&] {
    for (const Command& e : envelopes) sink = sink + crsm::split_batch(e).size();
  });

  const double apply_ns = time_per_item(puts.size(), 0.2, [&] {
    crsm::KvStore kv;
    for (const Command& c : puts) sink = sink + kv.apply(c).size();
  });
  crsm::KvStore kv;
  for (const Command& c : puts) (void)kv.apply(c);
  const double read_ns = time_per_item(gets.size(), 0.2, [&] {
    for (const Command& c : gets) sink = sink + kv.apply_read(c).size();
  });

  // FileLog on the WAL's filesystem: PREPARE records of the workload's puts.
  const std::string path = dir + "/micro.wal";
  std::vector<crsm::LogRecord> records;
  for (std::size_t i = 0; i < puts.size(); ++i) {
    records.push_back(crsm::LogRecord::prepare(crsm::Timestamp{1000 + i, 0}, puts[i]));
  }
  double append_us = 0;
  std::vector<double> sync_us;
  {
    ::unlink(path.c_str());
    crsm::FileLog log(path);
    const std::size_t n = std::min<std::size_t>(records.size(), 5000);
    const std::int64_t t0 = mono_ns();
    for (std::size_t i = 0; i < n; ++i) log.append(records[i]);
    append_us = static_cast<double>(mono_ns() - t0) / 1e3 / static_cast<double>(n);
    log.sync();
    for (std::size_t i = 0; i < 200; ++i) {
      log.append(records[i % records.size()]);
      const std::int64_t s0 = mono_ns();
      log.sync();
      sync_us.push_back(static_cast<double>(mono_ns() - s0) / 1e3);
    }
  }
  ::unlink(path.c_str());

  std::printf(
      "RESULT {\"encode_ns_per_frame\": %.3f, \"decode_ns_per_frame\": %.3f, "
      "\"batch_make_ns_per_cmd\": %.3f, \"batch_split_ns_per_cmd\": %.3f, "
      "\"apply_ns_per_put\": %.3f, \"apply_read_ns_per_get\": %.3f, "
      "\"append_us_per_record\": %.4f, \"fdatasync_us\": %.3f}\n",
      encode_ns, decode_ns, make_ns, split_ns, apply_ns, read_ns, append_us,
      percentile(sync_us, 50));
  std::fflush(stdout);
  (void)sink;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Workload w;
  std::vector<std::string> peers;
  std::string micro_dir;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) die("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--peers") {
        peers = split(v, ',');
      } else if (a == "--rate") {
        w.rate = std::stod(v);
      } else if (a == "--read-fraction") {
        w.read_fraction = std::stod(v);
      } else if (a == "--keys") {
        w.keys = static_cast<std::uint32_t>(std::stoul(v));
      } else if (a == "--warmup-s") {
        w.warmup_s = std::stod(v);
      } else if (a == "--seconds") {
        w.seconds = std::stod(v);
      } else if (a == "--seed") {
        w.seed = std::stoull(v);
      } else if (a == "--micro") {
        micro_dir = v;
      } else {
        die("unknown flag " + a);
      }
    }
  } catch (const std::exception& e) {
    die(std::string("bad argument: ") + e.what());
  }
  if (w.rate <= 0 || w.keys == 0 || w.seconds <= 0) die("bad workload");
  try {
    if (!micro_dir.empty()) return micro(w, micro_dir);
    return drive(w, peers);
  } catch (const std::exception& e) {
    die(e.what());
  }
}
