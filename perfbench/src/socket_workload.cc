// The socketed workload, socket_edge: one speedkit-edged process on an
// ephemeral loopback port, driven by the benchmark's own single-threaded
// HTTP/1.1 client over a few keep-alive connections. After a warm-up, the
// run alternates kCycles open-loop bursts at a fixed offered rate, which
// measure latency from each request's due time, with closed-loop bursts,
// which measure throughput, so that both are sampled across the whole run.
// The open loop reads the request stream from its start and the closed loop
// from its middle, so the open loop's requests depend on the seed alone;
// origin load, modelled latency and memory come from the first open burst,
// which only the warm-up precedes. edged is always stopped, with SIGTERM
// and then SIGKILL after a timeout, on every exit path.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "net/http_codec.h"

namespace perfbench {

namespace {

constexpr int kConnections = 3;
constexpr size_t kClosedDepth = 16;      // requests in flight per connection
constexpr uint32_t kProducts = 10000;    // edged's catalog size
constexpr uint32_t kIdentities = 16384;  // X-SpeedKit-Client values
constexpr double kProductSkew = 0.9;
constexpr double kOfferedRate = 8000;    // open-loop requests per second
constexpr double kOpenShare = 0.5;       // of --seconds; the rest is closed loop
constexpr int kCycles = 3;               // open/closed burst pairs per run
constexpr size_t kStream = size_t{1} << 20;
constexpr size_t kCaptured = 2048;       // wire frames kept for codec timing
// Interference from other work on the host comes in bursts from a tenth of
// a second to most of a run, and it only ever adds latency and takes away
// throughput. So the open loop is cut into windows (2000 samples each, 20
// beyond the p99) and the latency quantiles are the kQuietShare quantile
// over the windows' own quantiles; throughput is the (1 - kQuietShare)
// quantile over closed-loop slices. Both come from the quietest tenth of
// the run.
constexpr int64_t kSliceNs = 100'000'000;
constexpr int64_t kWindowNs = 250'000'000;
constexpr double kQuietShare = 0.1;

// Restricts thread `tid` (0 = the caller) to one CPU.
void PinTo(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

// Restricts every thread of process `pid` to one CPU.
void PinProcessTo(pid_t pid, int cpu) {
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(tasks.c_str());
  if (dir == nullptr) {
    PinTo(pid, cpu);
    return;
  }
  while (const dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) PinTo(tid, cpu);
  }
  closedir(dir);
}

// The edged child process. The destructor stops it whatever happened.
class EdgedProcess {
 public:
  ~EdgedProcess() { Stop(); }

  bool Spawn(const std::string& path, const std::vector<std::string>& args) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return false;
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      // Dies with the benchmark even if the benchmark is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      dup2(fds[1], STDOUT_FILENO);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(path.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    return true;
  }

  // Reads edged's startup line for the port it bound; 0 on failure.
  int ReadPort(double timeout_s) {
    std::string text;
    auto t0 = Clock::now();
    while (SecondsSince(t0) < timeout_s) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 50) <= 0) continue;
      char buf[512];
      ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return 0;  // edged exited
      text.append(buf, static_cast<size_t>(n));
      size_t at = text.find("serving on ");
      if (at == std::string::npos) continue;
      size_t colon = text.find(':', at);
      size_t end = text.find(' ', colon);
      if (colon == std::string::npos || end == std::string::npos) continue;
      return std::atoi(text.substr(colon + 1, end - colon - 1).c_str());
    }
    return 0;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      bool exited = false;
      auto t0 = Clock::now();
      while (SecondsSince(t0) < 5.0) {
        if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
          exited = true;
          break;
        }
        usleep(10000);
      }
      if (!exited) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

int64_t RssBytes(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atoll(line.c_str() + 6) * 1024;
  }
  return 0;
}

int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// One parsed response, by the benchmark's own parser.
struct Response {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string_view body;
  size_t frame = 0;  // bytes consumed
};

// Parses one HTTP/1.1 response with a Content-Length body from the front of
// `data`. Returns 0 when more bytes are needed, -1 on a malformed frame.
int ParseOne(std::string_view data, Response* out) {
  size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return 0;
  if (data.substr(0, 9) != "HTTP/1.1 " || head_end < 12) return -1;
  out->status = std::atoi(std::string(data.substr(9, 3)).c_str());
  out->headers.clear();
  size_t content_length = 0;
  bool has_length = false;
  size_t line = data.find("\r\n") + 2;
  while (line < head_end) {
    size_t eol = data.find("\r\n", line);
    std::string_view h = data.substr(line, eol - line);
    size_t colon = h.find(':');
    if (colon == std::string_view::npos) return -1;
    std::string name(h.substr(0, colon));
    std::string_view value = h.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (strcasecmp(name.c_str(), "Content-Length") == 0) {
      content_length = std::strtoull(std::string(value).c_str(), nullptr, 10);
      has_length = true;
    }
    out->headers.emplace_back(std::move(name), std::string(value));
    line = eol + 2;
  }
  if (!has_length) return -1;
  size_t total = head_end + 4 + content_length;
  if (data.size() < total) return 0;
  out->body = data.substr(head_end + 4, content_length);
  out->frame = total;
  return 1;
}

std::string HeaderValue(const Response& r, const char* name) {
  for (const auto& [k, v] : r.headers) {
    if (strcasecmp(k.c_str(), name) == 0) return v;
  }
  return "";
}

// A blocking request/response on a fresh connection (admin endpoints).
bool Exchange(int port, const std::string& target, std::string* body) {
  int fd = Connect(port);
  if (fd < 0) return false;
  std::string req = "GET " + target + " HTTP/1.1\r\nHost: admin\r\nConnection: close\r\n\r\n";
  bool ok = send(fd, req.data(), req.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(req.size());
  std::string in;
  Response r;
  int parsed = 0;
  while (ok && parsed == 0) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, 2000) <= 0) break;
    char buf[65536];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    in.append(buf, static_cast<size_t>(n));
    parsed = ParseOne(in, &r);
  }
  close(fd);
  if (parsed != 1 || r.status != 200) return false;
  *body = std::string(r.body);
  return true;
}

// The number after `"key":` at or after `section` in edged's /metricsz.
double JsonNumber(const std::string& json, const std::string& section,
                  const std::string& key) {
  size_t at = json.find("\"" + section + "\":{");
  if (at == std::string::npos) return -1;
  at = json.find("\"" + key + "\":", at);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

struct Pending {
  uint64_t seq;  // request number; its inputs are stream_[seq % kStream]
  int64_t due_ns;
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::deque<Pending> pending;
};

struct SourceTally {
  uint64_t browser = 0, edge = 0, origin = 0, offline = 0, error = 0;
};

class Client {
 public:
  Client(uint64_t seed, bool trace) : trace_(trace), product_body_(kProducts, 0) {
    Zipf products(kProducts, kProductSkew);
    Rng r = Stream(seed, 7);
    stream_.reserve(kStream);
    // The first kIdentities requests (the warm-up) visit every identity
    // once; later ones pick identities at random.
    for (size_t i = 0; i < kStream; ++i) {
      uint32_t product = static_cast<uint32_t>(products.Sample(r));
      uint32_t identity = i < kIdentities ? static_cast<uint32_t>(i) + 1
                                          : static_cast<uint32_t>(r.Below(kIdentities)) + 1;
      stream_.push_back({product, identity});
    }
    if (trace_) request_span_ = spans_.Name("client.request");
  }

  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

  bool Open(int port) {
    for (int i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = Connect(port);
      if (c.fd < 0) return false;
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
    return true;
  }

  // Sends the next `count` requests of the stream, pipelined like the
  // closed loop, and waits for all of them. Not timed.
  void WarmUp(uint64_t count) {
    int32_t phase = trace_ ? spans_.Open(spans_.Name("phase.warm_up"), -1) : -1;
    parent_span_ = phase;
    const uint64_t last = open_seq_ + count;
    while (ok_ && open_seq_ < last) {
      for (Conn& c : conns_) {
        while (c.pending.size() < kClosedDepth && open_seq_ < last) Send(c, NowNs(), &open_seq_);
      }
      Pump(10'000'000);
    }
    Drain();
    if (phase >= 0) spans_.Close(phase);
  }

  // Closed loop: each connection keeps kClosedDepth pipelined requests in
  // flight, so edged rather than the round trip sets the pace. Counts the
  // responses completed in each kSliceNs slice of the burst, after the
  // slices of earlier bursts. Like the open loop, it polls without sleeping.
  void ClosedLoop(double seconds) {
    int32_t phase = trace_ ? spans_.Open(spans_.Name("phase.closed_loop"), -1) : -1;
    parent_span_ = phase;
    closed_start_ns_ = NowNs();
    closed_end_ns_ = closed_start_ns_ + static_cast<int64_t>(seconds * 1e9);
    slice_base_ = slice_responses_.size();
    slice_responses_.resize(slice_base_ + static_cast<size_t>((closed_end_ns_ - closed_start_ns_) / kSliceNs));
    for (int64_t now = NowNs(); ok_ && now < closed_end_ns_; now = NowNs()) {
      for (Conn& c : conns_) {
        while (c.pending.size() < kClosedDepth) Send(c, now, &closed_seq_);
      }
      Pump(0);
    }
    Drain();
    if (phase >= 0) spans_.Close(phase);
  }

  // Open loop at `rate` requests per second, due times fixed in advance.
  // The client polls without sleeping until each due time, so that its own
  // wake-up delay (timer slack, an idle CPU coming back) is not counted as
  // edged's latency.
  void OpenLoop(double seconds, double rate) {
    int32_t phase = trace_ ? spans_.Open(spans_.Name("phase.open_loop"), -1) : -1;
    parent_span_ = phase;
    record_latency_ = true;
    const int64_t start = NowNs();
    open_start_ns_ = start;
    const uint64_t total = static_cast<uint64_t>(seconds * rate);
    const double interval_ns = 1e9 / rate;
    size_t next_conn = 0;
    for (uint64_t i = 0; i < total && ok_;) {
      int64_t due = start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      int64_t now = NowNs();
      if (now >= due) {
        lateness_ns_.push_back(now - due);
        Send(conns_[next_conn], due, &open_seq_);
        next_conn = (next_conn + 1) % conns_.size();
        ++i;
        continue;
      }
      Pump(0);
    }
    Drain();
    record_latency_ = false;
    window_base_ += static_cast<size_t>((static_cast<int64_t>(seconds * 1e9) + kWindowNs - 1) / kWindowNs);
    if (phase >= 0) spans_.Close(phase);
  }

  bool ok() const { return ok_; }
  uint64_t sent() const { return sent_; }
  uint64_t responses() const { return responses_; }
  uint64_t bad_status() const { return bad_status_; }
  uint64_t body_mismatches() const { return body_mismatches_; }
  uint32_t identities_seen() const {
    uint32_t n = 0;
    for (bool b : identity_seen_) n += b ? 1 : 0;
    return n;
  }
  const SourceTally& tally() const { return tally_; }
  const std::vector<int64_t>& latency_ns() const { return latency_ns_; }
  // Which kWindowNs window of the open loop each latency sample was due in,
  // counted across bursts.
  const std::vector<uint32_t>& latency_window() const { return latency_window_; }
  const std::vector<uint64_t>& slice_responses() const { return slice_responses_; }
  const std::vector<int64_t>& lateness_ns() const { return lateness_ns_; }
  const std::vector<int64_t>& model_latency_us() const { return model_latency_us_; }
  const std::vector<std::string>& captured_requests() const { return captured_requests_; }
  const std::vector<std::string>& captured_responses() const { return captured_responses_; }
  const SpanLog& spans() const { return spans_; }

 private:
  // Sends the request at stream position *cursor and advances the cursor.
  void Send(Conn& c, int64_t due_ns, uint64_t* cursor) {
    const uint64_t seq = (*cursor)++;
    const auto [product, identity] = stream_[seq % kStream];
    identity_seen_[identity] = true;
    std::string req = "GET /api/records/p" + std::to_string(product) +
                      " HTTP/1.1\r\nHost: shop.example.com\r\nX-SpeedKit-Client: " +
                      std::to_string(identity) + "\r\n\r\n";
    if (captured_requests_.size() < kCaptured) captured_requests_.push_back(req);
    c.out += req;
    c.pending.push_back(Pending{seq, due_ns});
    sent_++;
    Flush(c);
  }

  void Flush(Conn& c) {
    while (!c.out.empty()) {
      ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        ok_ = false;
        return;
      }
    }
  }

  // Waits up to `timeout_ns` for socket activity and handles it.
  void Pump(int64_t timeout_ns) {
    pollfd fds[kConnections];
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = pollfd{conns_[i].fd,
                      static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    int n = ppoll(fds, conns_.size(), &ts, nullptr);
    if (n <= 0) return;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & POLLOUT) Flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) Read(conns_[i]);
    }
  }

  void Read(Conn& c) {
    char buf[65536];
    while (true) {
      ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      ok_ = false;  // peer closed or failed
      break;
    }
    const int64_t now = NowNs();
    size_t off = 0;
    Response r;
    while (true) {
      int parsed = ParseOne(std::string_view(c.in).substr(off), &r);
      if (parsed == 0) break;
      if (parsed < 0 || c.pending.empty()) {
        ok_ = false;
        break;
      }
      Pending p = c.pending.front();
      c.pending.pop_front();
      Record(r, p, now, std::string_view(c.in).substr(off, r.frame));
      off += r.frame;
    }
    c.in.erase(0, off);
  }

  void Record(const Response& r, const Pending& p, int64_t now, std::string_view frame) {
    responses_++;
    if (r.status != 200 && r.status != 304) bad_status_++;
    const uint32_t product = stream_[p.seq % kStream].first;
    uint64_t h = HashBytes(r.body.data(), r.body.size());
    if (product_body_[product] == 0) {
      product_body_[product] = h;
    } else if (product_body_[product] != h) {
      body_mismatches_++;
    }
    std::string source = HeaderValue(r, "X-SpeedKit-Source");
    if (source == "browser") tally_.browser++;
    else if (source == "edge") tally_.edge++;
    else if (source == "origin") tally_.origin++;
    else if (source == "offline") tally_.offline++;
    else tally_.error++;
    if (now >= closed_start_ns_ && now < closed_end_ns_) {
      size_t slice = slice_base_ + static_cast<size_t>((now - closed_start_ns_) / kSliceNs);
      if (slice < slice_responses_.size()) slice_responses_[slice]++;
    }
    if (record_latency_) {
      latency_ns_.push_back(now - p.due_ns);
      latency_window_.push_back(
          static_cast<uint32_t>(window_base_ + static_cast<size_t>((p.due_ns - open_start_ns_) / kWindowNs)));
      model_latency_us_.push_back(std::atoll(HeaderValue(r, "X-SpeedKit-Latency-Us").c_str()));
    }
    if (trace_) spans_.Add(request_span_, parent_span_, p.seq + 1, p.due_ns, now);
    if (captured_responses_.size() < kCaptured) captured_responses_.emplace_back(frame);
  }

  // Waits for every outstanding response (bounded, so a stalled server
  // cannot hang the run).
  void Drain() {
    auto t0 = Clock::now();
    auto outstanding = [&] {
      for (const Conn& c : conns_) {
        if (!c.pending.empty()) return true;
      }
      return false;
    };
    while (ok_ && outstanding() && SecondsSince(t0) < 10) Pump(10'000'000);
    if (outstanding()) ok_ = false;
  }

  bool trace_;
  bool ok_ = true;
  bool record_latency_ = false;
  std::vector<std::pair<uint32_t, uint32_t>> stream_;  // product, identity
  std::vector<Conn> conns_;
  uint64_t sent_ = 0;
  // Stream positions: the warm-up and the open loop read from the start,
  // the closed loop from the middle.
  uint64_t open_seq_ = 0;
  uint64_t closed_seq_ = kStream / 2;
  size_t window_base_ = 0;  // first latency window of the current open burst
  size_t slice_base_ = 0;   // first slice of the current closed burst
  uint64_t responses_ = 0;
  uint64_t bad_status_ = 0;
  uint64_t body_mismatches_ = 0;
  std::vector<uint64_t> product_body_;
  std::vector<bool> identity_seen_ = std::vector<bool>(kIdentities + 1, false);
  SourceTally tally_;
  std::vector<int64_t> latency_ns_;
  std::vector<uint32_t> latency_window_;
  int64_t open_start_ns_ = 0;
  int64_t closed_start_ns_ = 0;
  int64_t closed_end_ns_ = 0;
  std::vector<uint64_t> slice_responses_;
  std::vector<int64_t> lateness_ns_;
  std::vector<int64_t> model_latency_us_;
  std::vector<std::string> captured_requests_;
  std::vector<std::string> captured_responses_;
  SpanLog spans_;
  uint32_t request_span_ = 0;
  int32_t parent_span_ = -1;
};

// Mean ns per call of `fn` over the captured frames, repeated for ~50 ms.
template <typename Fn>
double TimePerCall(size_t n, Fn fn) {
  if (n == 0) return 0;
  uint64_t calls = 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  while (t1 - t0 < 50'000'000) {
    for (size_t i = 0; i < n; ++i) fn(i);
    calls += n;
    t1 = NowNs();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

}  // namespace

RunReport RunSocketWorkload(const Options& options) {
  RunReport report;
  if (kIdentities + options.seconds * kOpenShare * kOfferedRate >= static_cast<double>(kStream / 2)) {
    report.Fail("--seconds too long: the open loop would read the closed loop's half of the stream");
    return report;
  }

  // Once edged is up, it is pinned to one CPU. The client shares that CPU
  // in the open loop, so that latency does not depend on where the host
  // puts two virtual CPUs relative to each other (apart, their quiet p99
  // moved between runs by a third), and edged, which sleeps between
  // requests, preempts the polling client when a request arrives. In the
  // closed loop the client has a CPU of its own, so that throughput is
  // edged's alone. edged starts where the scheduler puts it: setup_s is
  // one cold measurement, and pinned it would ride on one fixed CPU's load.
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  EdgedProcess edged;
  if (!edged.Spawn(options.edged_path,
                   {"--port=0", "--seed=" + std::to_string(options.seed),
                    "--products=" + std::to_string(kProducts), "--flight=coalesce"})) {
    report.Fail("cannot start " + options.edged_path);
    return report;
  }
  // The client's request stream is generated while edged starts.
  Client client(options.seed, options.trace);
  const int port = edged.ReadPort(30);
  if (port <= 0) {
    report.Fail("speedkit-edged did not report a port");
    return report;
  }
  uint64_t admin_responses = 0;
  std::string body;
  auto wait_start = Clock::now();
  while (!Exchange(port, "/healthz", &body)) {
    if (SecondsSince(wait_start) > 30) {
      report.Fail("speedkit-edged never answered /healthz");
      return report;
    }
    usleep(2000);
  }
  admin_responses++;
  const double setup_s = SecondsSince(ProcessStart());
  const int edged_cpu = cpus.empty() ? -1 : cpus.back();
  const int client_cpu = cpus.size() >= 2 ? cpus[cpus.size() - 2] : edged_cpu;
  if (edged_cpu >= 0) {
    PinProcessTo(edged.pid(), edged_cpu);
    PinTo(0, client_cpu);
  }
  const int64_t rss_before = RssBytes(edged.pid());

  if (!client.Open(port)) {
    report.Fail("cannot connect to speedkit-edged");
    return report;
  }
  // Warm-up: every identity gets its first request, so later phases see
  // neither client creation nor the table growth it causes.
  client.WarmUp(kIdentities);
  const uint64_t warm_responses = client.responses();
  std::string warm_metrics, open_metrics;
  if (!Exchange(port, "/metricsz", &warm_metrics)) report.Fail("no /metricsz after the warm-up");
  admin_responses++;
  // The first open burst sees only the warm-up before it: its origin load,
  // modelled latency and edged's memory growth depend on the seed alone.
  const double open_s = options.seconds * kOpenShare / kCycles;
  const double closed_s = options.seconds * (1 - kOpenShare) / kCycles;
  uint64_t open_responses = 0;
  size_t first_open_samples = 0;
  int64_t rss_after = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    if (edged_cpu >= 0) PinTo(0, edged_cpu);
    client.OpenLoop(open_s, kOfferedRate);
    if (edged_cpu >= 0) PinTo(0, client_cpu);
    if (cycle == 0) {
      open_responses = client.responses() - warm_responses;
      first_open_samples = client.model_latency_us().size();
      rss_after = RssBytes(edged.pid());
      if (!Exchange(port, "/metricsz", &open_metrics)) report.Fail("no /metricsz after the open loop");
      admin_responses++;
    }
    client.ClosedLoop(closed_s);
  }

  std::string metrics;
  if (!Exchange(port, "/metricsz", &metrics)) report.Fail("no /metricsz");
  edged.Stop();

  report.attempted = client.sent();
  report.failed = (client.sent() - client.responses()) + client.bad_status();
  if (!client.ok()) report.Fail("connection failure or unreadable response");
  if (client.bad_status() > 0) {
    report.Fail(std::to_string(client.bad_status()) + " responses neither 200 nor 304");
  }
  if (client.body_mismatches() > 0) {
    report.Fail(std::to_string(client.body_mismatches()) +
                " responses differ in bytes from the first response for their URL");
  }
  const SourceTally& t = client.tally();
  auto expect = [&](const std::string& what, double client_count, double server_count) {
    if (client_count != server_count) {
      report.Fail(what + ": client counted " + std::to_string(client_count) +
                  ", /metricsz says " + std::to_string(server_count));
    }
  };
  expect("responses", static_cast<double>(client.responses()),
         JsonNumber(metrics, "proxy", "requests"));
  expect("browser serves", static_cast<double>(t.browser),
         JsonNumber(metrics, "proxy", "browser_hits") + JsonNumber(metrics, "proxy", "swr_serves"));
  expect("edge serves", static_cast<double>(t.edge), JsonNumber(metrics, "proxy", "edge_hits"));
  expect("origin serves", static_cast<double>(t.origin),
         JsonNumber(metrics, "proxy", "origin_fetches"));
  expect("offline serves", static_cast<double>(t.offline),
         JsonNumber(metrics, "proxy", "offline_serves"));
  expect("error serves", static_cast<double>(t.error), JsonNumber(metrics, "proxy", "errors"));
  expect("net.responses", static_cast<double>(client.responses() + admin_responses),
         JsonNumber(metrics, "net", "net.responses"));

  const double responses = static_cast<double>(client.responses());
  const double origin_requests = JsonNumber(metrics, "origin", "requests");
  const double open_origin_requests = JsonNumber(open_metrics, "origin", "requests") -
                                      JsonNumber(warm_metrics, "origin", "requests");
  // Per-window quantiles of the open loop, and per-slice closed-loop rates.
  std::vector<std::vector<int64_t>> windows;
  for (size_t i = 0; i < client.latency_ns().size(); ++i) {
    size_t w = client.latency_window()[i];
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(client.latency_ns()[i]);
  }
  std::vector<double> window_p50, window_p99;
  for (const std::vector<int64_t>& w : windows) {
    window_p50.push_back(static_cast<double>(Quantile(w, 0.5)) / 1e3);
    window_p99.push_back(static_cast<double>(Quantile(w, 0.99)) / 1e3);
  }
  std::vector<double> slice_rates;
  for (uint64_t n : client.slice_responses()) {
    slice_rates.push_back(static_cast<double>(n) * 1e9 / static_cast<double>(kSliceNs));
  }
  const double p50_us = Quantile(window_p50, kQuietShare);
  const uint32_t identities = client.identities_seen();
  report.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"req_per_s", Quantile(slice_rates, 1 - kQuietShare), "req/s"},
      {"req_p50_us", p50_us, "us"},
      {"req_p99_us", Quantile(window_p99, kQuietShare), "us"},
      {"bytes_per_client",
       identities == 0 ? 0 : static_cast<double>(rss_after - rss_before) / identities, "B"},
      {"model_api_p50_ms",
       static_cast<double>(Quantile(std::vector<int64_t>(client.model_latency_us().begin(),
                                                         client.model_latency_us().begin() +
                                                             static_cast<long>(first_open_samples)),
                                    0.5)) / 1e3,
       "ms"},
      {"origin_per_kreq",
       open_responses == 0 ? 0 : 1000.0 * open_origin_requests / static_cast<double>(open_responses),
       "1/kreq"},
  };

  if (options.trace) {
    // Codec cost on this run's own wire bytes.
    const auto& reqs = client.captured_requests();
    double parse_ns = TimePerCall(reqs.size(), [&](size_t i) {
      speedkit::net::WireRequest req;
      size_t consumed = 0;
      speedkit::net::ParseRequest(reqs[i], &req, &consumed);
    });
    std::vector<Response> parsed;
    std::vector<speedkit::http::HeaderMap> headers;
    for (const std::string& frame : client.captured_responses()) {
      Response r;
      if (ParseOne(frame, &r) != 1) continue;
      speedkit::http::HeaderMap h;
      for (const auto& [k, v] : r.headers) {
        if (strcasecmp(k.c_str(), "Content-Length") != 0 &&
            strcasecmp(k.c_str(), "Connection") != 0) {
          h.Set(k, v);
        }
      }
      parsed.push_back(r);
      headers.push_back(std::move(h));
    }
    double serialize_ns = TimePerCall(parsed.size(), [&](size_t i) {
      std::string wire = speedkit::net::SerializeResponse(parsed[i].status, headers[i],
                                                          parsed[i].body, true);
      if (wire.empty()) std::abort();
    });
    const double handle_p50 = JsonNumber(metrics, "net", "p50");
    const double net_responses = JsonNumber(metrics, "net", "net.responses");
    report.per_layer = {
        {"proxy.fetches.browser", static_cast<double>(t.browser), "count"},
        {"proxy.fetches.edge", static_cast<double>(t.edge), "count"},
        {"proxy.fetches.origin", static_cast<double>(t.origin), "count"},
        {"origin.requests", origin_requests, "count"},
        {"origin.not_modified", JsonNumber(metrics, "origin", "not_modified"), "count"},
        {"net.handle_us_p50", handle_p50, "us"},
        {"net.handle_us_p99", JsonNumber(metrics, "net", "p99"), "us"},
        {"net.outside_handle_us_p50", p50_us - handle_p50, "us"},
        {"net.parse_request_ns", parse_ns, "ns"},
        {"net.serialize_response_ns", serialize_ns, "ns"},
        {"net.bytes_out_per_response",
         net_responses > 0 ? JsonNumber(metrics, "net", "net.bytes_out") / net_responses : 0, "B"},
        {"net.origin_requests", origin_requests, "count"},
        {"net.flight_joins", JsonNumber(metrics, "net", "net.flight_joins"), "count"},
        {"client.lateness_us_p99",
         static_cast<double>(Quantile(client.lateness_ns(), 0.99)) / 1e3, "us"},
    };
    if (!options.out_dir.empty()) {
      client.spans().WriteTsv(options.out_dir + "/spans-socket_edge.tsv", "client",
                              /*append=*/false);
    }
  }
  report.detail["responses"] = responses;
  report.detail["open_loop.p99_us_whole_phase"] =
      static_cast<double>(Quantile(client.latency_ns(), 0.99)) / 1e3;
  report.detail["identities"] = identities;
  report.detail["fetches.browser"] = static_cast<double>(t.browser);
  report.detail["fetches.edge"] = static_cast<double>(t.edge);
  report.detail["fetches.origin"] = static_cast<double>(t.origin);
  report.detail["origin.requests"] = origin_requests;
  report.detail["open_loop.origin_requests"] = open_origin_requests;
  report.detail["open_loop.responses"] = static_cast<double>(open_responses);
  report.detail["lateness_us_p50"] = static_cast<double>(Quantile(client.lateness_ns(), 0.5)) / 1e3;
  report.detail["lateness_us_p99"] = static_cast<double>(Quantile(client.lateness_ns(), 0.99)) / 1e3;
  report.detail["rss_before"] = static_cast<double>(rss_before);
  report.detail["rss_after"] = static_cast<double>(rss_after);
  return report;
}

}  // namespace perfbench
