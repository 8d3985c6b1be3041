// perf_bench: the measuring half of the end-to-end benchmark (see
// perfbench/README.md; perfbench/run.py builds and drives it).
//
//   perf_bench --workload batch-hbase|ooc-hdfs|svc-cold|svc-warm --seed N --seconds S
//              --work-dir DIR [--trace-out FILE] [--inject-solve-us U]
//
// perf_bench reaches the system only through its public entry points:
// ParseProgram, the Grapple constructor and Grapple::Check (reading
// GrappleResult and its obs::RunReport), and GrappleService::Start/Stats with
// loopback HTTP POST /check. Every verdict is checked: batch reports against
// the generator's ground truth, service replies against a one-shot Grapple
// run over the same text.
//
// With --trace-out, every other operation is traced: spans (id, parent,
// request id, name, start, end) are recorded here, around the calls above,
// held in memory and written once at exit. The run report each Check returns
// rides on its span as an attribute; run.py expands it into per-layer child
// spans. The untraced operations of the same run give the tracing overhead.
//
// Progress goes to stderr. The last stdout line is one JSON object with the
// end-to-end metrics, sample counts and verdict failures.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/obs/json.h"
#include "src/service/service.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using grapple::GrappleOptions;
using grapple::GrappleResult;
using grapple::Workload;
using grapple::WorkloadConfig;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

double SecondsBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

// ---------------------------------------------------------------- tracing

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one verdict
  std::string name;
  std::string stage;  // "setup" or "measure"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string attrs;  // raw JSON object, or empty
};

class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  bool Write(const std::string& path) const {
    grapple::obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("grapple.perfbench_trace.v1");
    w.Key("spans").BeginArray();
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      w.BeginObject();
      w.Key("id").UInt(s.id);
      w.Key("parent").UInt(s.parent);
      w.Key("request").UInt(s.request);
      w.Key("name").String(s.name);
      w.Key("stage").String(s.stage);
      w.Key("start_ns").Int(s.start_ns);
      w.Key("end_ns").Int(s.end_ns);
      if (!s.attrs.empty()) {
        w.Key("attrs").Raw(s.attrs);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.Take() << "\n";
    return static_cast<bool>(out);
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times one call. Records a span on destruction when given a tracer; the
// measured seconds are available either way.
class Timed {
 public:
  Timed(Tracer* tracer, std::string name, std::string stage, uint64_t parent, uint64_t request)
      : tracer_(tracer) {
    span_.id = tracer != nullptr ? tracer->NewId() : 0;
    span_.parent = parent;
    span_.request = request;
    span_.name = std::move(name);
    span_.stage = std::move(stage);
    span_.start_ns = NowNs();
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    if (span_.end_ns == 0) {
      Stop();
    }
    if (tracer_ != nullptr) {
      tracer_->Record(std::move(span_));
    }
  }

  double Stop() {
    span_.end_ns = NowNs();
    return Seconds();
  }
  double Seconds() const { return SecondsBetween(span_.start_ns, span_.end_ns); }
  double Elapsed() const { return SecondsBetween(span_.start_ns, NowNs()); }
  uint64_t id() const { return span_.id; }
  int64_t start_ns() const { return span_.start_ns; }
  void SetAttrs(std::string json) { span_.attrs = std::move(json); }

 private:
  Tracer* tracer_;
  Span span_;
};

// Records a span whose interval the program reported (service queue and
// check times), placed at `start_ns`.
void RecordDerived(Tracer* tracer, const std::string& name, const std::string& stage,
                   uint64_t parent, uint64_t request, int64_t start_ns, double seconds,
                   std::string attrs = "") {
  if (tracer == nullptr) {
    return;
  }
  Span span;
  span.id = tracer->NewId();
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.stage = stage;
  span.start_ns = start_ns;
  span.end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  span.attrs = std::move(attrs);
  tracer->Record(std::move(span));
}

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The tail a sample count supports: the highest percentile, up to p99, with
// at least ten samples beyond it. Below 20 samples no percentile above the
// median has ten beyond it, and the tail is the slowest sample.
double TailPercentile(size_t samples) {
  return samples < 20 ? 100 : std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(samples)));
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- the verdicts

// Collects failures; one line each, the first few kept for the report.
class Failures {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (messages_.size() < 8) {
      messages_.push_back(what);
    }
    std::fprintf(stderr, "perf_bench: FAILED: %s\n", what.c_str());
  }
  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  size_t count_ = 0;
  std::vector<std::string> messages_;
};

// Every report of `result` against the generator's ground truth. Returns ""
// when the verdict is exactly right: every real bug and every fp-trap
// reported, nothing reported on a clean pattern or a line no pattern owns,
// and no checker degraded.
std::string VerifyVerdicts(const Workload& workload, const GrappleResult& result) {
  std::string problems;
  auto note = [&problems](const std::string& what) {
    problems += problems.empty() ? what : "; " + what;
  };
  std::set<std::string> seen;
  for (const auto& run : result.checkers) {
    seen.insert(run.checker);
    if (run.degraded) {
      note(run.checker + " degraded: " + run.degraded_reason);
      continue;
    }
    grapple::Classification c = grapple::ClassifyReports(workload, run.checker, run.reports);
    if (c.false_negatives > 0) {
      note(run.checker + " missed " + std::to_string(c.false_negatives) + " real bugs");
    }
    if (!c.unmatched_reports.empty()) {
      note(run.checker + " " + std::to_string(c.unmatched_reports.size()) +
           " unexpected reports, first: " + c.unmatched_reports.front());
    }
    std::set<int32_t> lines;
    for (const auto& report : run.reports) {
      lines.insert(report.alloc_line);
    }
    for (const auto& pattern : workload.patterns) {
      if (pattern.checker == run.checker && pattern.report_expected && !pattern.is_real_bug &&
          lines.count(pattern.alloc_line) == 0) {
        note(run.checker + " missed fp-trap at line " + std::to_string(pattern.alloc_line));
      }
    }
  }
  for (const auto& pattern : workload.patterns) {
    if (seen.count(pattern.checker) == 0) {
      note("no result for checker " + pattern.checker);
      seen.insert(pattern.checker);
    }
  }
  return problems;
}

// Reports carry the line numbers of the text the program was parsed from,
// while the generator's ground truth uses its own synthetic lines. Both
// programs have the same shape, so walking them side by side re-keys every
// allocation's line.
bool MapAllocLines(const std::vector<grapple::Stmt>& generated,
                   const std::vector<grapple::Stmt>& parsed, std::map<int32_t, int32_t>* lines) {
  if (generated.size() != parsed.size()) {
    return false;
  }
  for (size_t i = 0; i < generated.size(); ++i) {
    const grapple::Stmt& g = generated[i];
    const grapple::Stmt& p = parsed[i];
    if (g.kind != p.kind) {
      return false;
    }
    if (g.kind == grapple::StmtKind::kAlloc) {
      lines->emplace(g.source_line, p.source_line);
    }
    if (!MapAllocLines(g.then_block, p.then_block, lines) ||
        !MapAllocLines(g.else_block, p.else_block, lines)) {
      return false;
    }
  }
  return true;
}

// The subject's text with its methods in the order drawn for (`seed`,
// `layout`). The program is the same; its presentation changes, and with it
// every line number and the order in which the frontend meets methods and
// numbers vertices, which sets the out-of-core partition layout.
std::string ShuffledText(const grapple::Program& program, uint64_t seed, uint64_t layout) {
  std::string text = program.ToString();
  std::vector<std::string> methods;
  const std::string kEnd = "}\n\n";
  for (size_t begin = 0; begin < text.size();) {
    size_t end = text.find(kEnd, begin);
    end = end == std::string::npos ? text.size() : end + kEnd.size();
    methods.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  std::seed_seq seq{seed, layout};
  std::mt19937_64 rng(seq);
  std::shuffle(methods.begin(), methods.end(), rng);
  std::string shuffled;
  shuffled.reserve(text.size());
  for (const auto& method : methods) {
    shuffled += method;
  }
  return shuffled;
}

// The generator's ground truth keyed by the lines of `text`. Only the
// patterns are kept; ClassifyReports reads nothing else.
bool GroundTruthForText(const Workload& generated, const std::string& text, Workload* truth) {
  grapple::ParseResult parsed = grapple::ParseProgram(text);
  const auto& gen_methods = generated.program.methods();
  if (!parsed.ok || parsed.program.methods().size() != gen_methods.size()) {
    return false;
  }
  std::map<std::string, const grapple::Method*> by_name;
  for (const auto& method : parsed.program.methods()) {
    by_name[method.name] = &method;
  }
  std::map<int32_t, int32_t> lines;
  for (const auto& method : gen_methods) {
    auto it = by_name.find(method.name);
    if (it == by_name.end() || !MapAllocLines(method.body, it->second->body, &lines)) {
      return false;
    }
  }
  truth->config = generated.config;
  truth->patterns = generated.patterns;
  for (auto& pattern : truth->patterns) {
    auto it = lines.find(pattern.alloc_line);
    if (it == lines.end()) {
      return false;
    }
    pattern.alloc_line = it->second;
  }
  return true;
}

std::string AllReportsJson(const GrappleResult& result) {
  std::vector<grapple::BugReport> all;
  for (const auto& run : result.checkers) {
    all.insert(all.end(), run.reports.begin(), run.reports.end());
  }
  return grapple::ReportsToJson(all);
}

// ------------------------------------------------------------------- args

struct Args {
  std::string workload;
  // --seed orders the subject's methods in its text; --subject-seed is the
  // generator seed (default: the preset's).
  uint64_t seed = 0;
  bool seed_given = false;
  uint64_t subject_seed = 0;
  bool subject_seed_given = false;
  double seconds = 10;
  std::string work_dir;
  std::string trace_out;
  uint32_t inject_solve_us = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      args->seed_given = true;
    } else if (key == "--subject-seed") {
      args->subject_seed = std::strtoull(value.c_str(), nullptr, 10);
      args->subject_seed_given = true;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--inject-solve-us") {
      args->inject_solve_us = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else {
      std::fprintf(stderr, "perf_bench: unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || args->work_dir.empty() || args->seconds <= 0) {
    std::fprintf(stderr, "perf_bench: need --workload, --work-dir and a positive --seconds\n");
    return false;
  }
  return true;
}

// One rendering of the subject, with the ground truth keyed by its lines.
struct Subject {
  std::string text;
  Workload truth;
};

// Generates the workload's subject and renders it `layouts` times: with
// --seed, in method orders drawn from the seed; without, in the generator's
// own order (once).
std::vector<Subject> MakeSubjects(const Args& args, WorkloadConfig config, size_t layouts,
                                  Failures* failures) {
  if (args.subject_seed_given) {
    config.seed = args.subject_seed;
  }
  Workload workload = grapple::GenerateWorkload(config);
  std::vector<Subject> subjects(args.seed_given ? layouts : 1);
  for (size_t k = 0; k < subjects.size(); ++k) {
    subjects[k].text = args.seed_given ? ShuffledText(workload.program, args.seed, k)
                                       : workload.program.ToString();
    if (!GroundTruthForText(workload, subjects[k].text, &subjects[k].truth)) {
      failures->Add("cannot map the ground truth onto the subject text");
      return {};
    }
  }
  std::fprintf(stderr,
               "perf_bench: %s subject seed %llu, %zu statements, %zu bytes, %zu layout(s)\n",
               config.name.c_str(), static_cast<unsigned long long>(config.seed),
               workload.total_statements, subjects[0].text.size(), subjects.size());
  return subjects;
}

// Everything a workload measured, printed as the result line.
struct Outcome {
  size_t attempted = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> samples;  // counts behind the metrics
  double trace_overhead_pct = 0;
};

// Splits per-operation check times by whether the operation was traced.
double OverheadPct(const std::vector<double>& traced, const std::vector<double>& untraced) {
  double base = Median(untraced);
  return traced.empty() || base <= 0 ? 0 : 100.0 * (Median(traced) - base) / base;
}

// ---------------------------------------------------------- batch workloads

// Safety stop for one run, well inside run.py's 170 s timeout.
constexpr double kHardStopSeconds = 120;
// Renderings per batch run. The out-of-core cost depends on the method
// order (it sets the partition layout), so a run cycles through several and
// its median does not hang on one draw.
constexpr size_t kBatchLayouts = 8;
// Set-up is milliseconds on the batch subjects; take this many samples so
// its median is steady.
constexpr size_t kMinSetupSamples = 15;

// One fresh session per verdict: ParseProgram + constructor (set-up), then
// Check with the four built-in checkers, repeated until `seconds` of
// verdicts have been measured. `out_of_core` switches to the small-budget,
// checkpointing configuration.
Outcome RunBatch(const Args& args, bool out_of_core, Tracer* tracer, Failures* failures) {
  Outcome outcome;
  std::vector<Subject> subjects = MakeSubjects(
      args, out_of_core ? grapple::HdfsPreset(0.3) : grapple::HBasePreset(0.5), kBatchLayouts,
      failures);
  if (subjects.empty()) {
    return outcome;
  }

  GrappleOptions options;
  options.engine.simulated_solve_latency_us = args.inject_solve_us;
  if (out_of_core) {
    options.engine.memory_budget_bytes = uint64_t{1} << 20;
    options.robustness.checkpoint_interval = 16;
  }

  std::vector<double> setup_s;
  std::vector<double> check_s;
  std::vector<double> verdict_s;
  std::vector<double> traced_check_s;
  std::vector<double> untraced_check_s;
  std::vector<std::string> first_reports(subjects.size());
  int64_t loop_begin = NowNs();
  double measured = 0;
  for (size_t rep = 0;; ++rep) {
    bool verdict = measured < args.seconds;
    if (!verdict && setup_s.size() >= kMinSetupSamples) {
      break;
    }
    if (SecondsBetween(loop_begin, NowNs()) > kHardStopSeconds) {
      failures->Add("run exceeded " + std::to_string(kHardStopSeconds) + " s");
      break;
    }
    // Every other verdict is traced, so the untraced ones give the overhead.
    Tracer* t = verdict && rep % 2 == 0 ? tracer : nullptr;
    uint64_t request = rep + 1;
    const Subject& subject = subjects[rep % subjects.size()];
    std::string dir = args.work_dir + "/rep-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    options.work_dir = dir;
    try {
      Timed root(t, "verdict", "measure", 0, request);
      grapple::ParseResult parsed;
      {
        Timed parse(t, "ir.parse", "measure", root.id(), request);
        parsed = grapple::ParseProgram(subject.text);
      }
      if (!parsed.ok) {
        failures->Add("subject does not parse: " + parsed.error);
        break;
      }
      std::unique_ptr<grapple::Grapple> session;
      {
        Timed frontend(t, "core.frontend", "measure", root.id(), request);
        session = std::make_unique<grapple::Grapple>(std::move(parsed.program), options);
      }
      setup_s.push_back(root.Elapsed());
      if (!verdict) {
        session.reset();
        std::filesystem::remove_all(dir);
        continue;
      }
      GrappleResult result;
      double check;
      {
        Timed check_span(t, "core.check", "measure", root.id(), request);
        result = session->Check(grapple::AllBuiltinCheckers());
        check = check_span.Stop();
        if (t != nullptr) {
          check_span.SetAttrs("{\"warm\":false,\"report\":" + result.report.ToJson() + "}");
        }
      }
      double total = root.Stop();
      session.reset();
      std::filesystem::remove_all(dir);
      ++outcome.attempted;
      measured += total;
      check_s.push_back(check);
      verdict_s.push_back(total);
      (t != nullptr ? traced_check_s : untraced_check_s).push_back(check);
      std::string problems = VerifyVerdicts(subject.truth, result);
      std::string reports = AllReportsJson(result);
      std::string& first = first_reports[rep % subjects.size()];
      if (first.empty()) {
        first = reports;
      } else if (reports != first) {
        problems += problems.empty() ? "" : "; ";
        problems += "reports differ from the first verdict on this text";
      }
      if (!problems.empty()) {
        failures->Add("verdict " + std::to_string(rep) + ": " + problems);
      }
      std::fprintf(stderr, "perf_bench:   verdict %zu: setup %.4f s, check %.4f s\n", rep,
                   setup_s.back(), check);
    } catch (const std::exception& e) {
      ++outcome.attempted;
      failures->Add("verdict " + std::to_string(rep) + " threw: " + e.what());
      std::filesystem::remove_all(dir);
      if (!verdict) {
        break;
      }
    }
  }

  double latency_sum = 0;
  for (double v : verdict_s) {
    latency_sum += v;
  }
  outcome.metrics = {
      {"check_s", Median(check_s)},
      {"setup_s", Median(setup_s)},
      {"checks_per_s", latency_sum > 0 ? static_cast<double>(verdict_s.size()) / latency_sum : 0},
      {"latency_p50_ms", 1e3 * Median(verdict_s)},
      {"latency_tail_ms", 1e3 * Percentile(verdict_s, TailPercentile(verdict_s.size()))},
  };
  outcome.samples = {{"verdicts", static_cast<double>(verdict_s.size())},
                     {"setups", static_cast<double>(setup_s.size())},
                     {"tail_percentile", TailPercentile(verdict_s.size())}};
  outcome.trace_overhead_pct = OverheadPct(traced_check_s, untraced_check_s);
  return outcome;
}

// ------------------------------------------------------- service workload

struct HttpReply {
  int status = 0;  // 0 = transport failure
  std::string body;
};

// One HTTP/1.0 POST over a fresh loopback connection.
HttpReply Post(int port, const std::string& target, const std::string& body) {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return reply;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string request = "POST " + target + " HTTP/1.0\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[16384];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t space = response.find(' ');
  size_t header_end = response.find("\r\n\r\n");
  if (space == std::string::npos || header_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(response.c_str() + space + 1);
  reply.body = response.substr(header_end + 4);
  return reply;
}

// The number after `"key":` at or after `from`; -1 when absent.
double NumberAfter(const std::string& json, const std::string& key, size_t from = 0) {
  size_t pos = json.find("\"" + key + "\":", from);
  return pos == std::string::npos ? -1 : std::atof(json.c_str() + pos + key.size() + 3);
}

// Which sessions a request must find: a cold request builds one, a warm
// request reuses the tenant's resident one. svc-cold accepts either: its
// tenant rotation makes nearly every request cold, but which idle session the
// cache evicts is the cache's business, not part of the verdict.
enum class Warmth { kCold, kWarm, kEither };

// What one /check reply told us, after checking it.
struct Reply {
  bool ok = false;
  bool warm = false;
  double queue_s = 0;
  double check_s = 0;   // Grapple::Check alone (envelope check_seconds minus frontend)
  std::string report;   // the envelope's obs::RunReport JSON
};

// A reply is correct when it is a 200 whose envelope has the expected
// warm flag and exactly the one-shot run's reports.
Reply ReadReply(const HttpReply& http, Warmth expect, const std::string& expected_reports,
                const std::string& what, Failures* failures) {
  Reply reply;
  if (http.status != 200) {
    failures->Add(what + ": HTTP " + std::to_string(http.status) + " " +
                  http.body.substr(0, 200));
    return reply;
  }
  const std::string& body = http.body;
  size_t report_pos = body.find(expected_reports);
  if (report_pos == std::string::npos) {
    failures->Add(what + ": reports differ from the one-shot run");
    return reply;
  }
  reply.warm = body.find("\"warm\":true") != std::string::npos;
  if ((expect == Warmth::kCold && reply.warm) || (expect == Warmth::kWarm && !reply.warm)) {
    failures->Add(what + ": served " + (reply.warm ? "warm" : "cold"));
    return reply;
  }
  size_t report_begin = report_pos + expected_reports.size();
  size_t report_end = body.rfind('}');
  double frontend = NumberAfter(body, "frontend_seconds", report_begin);
  reply.queue_s = NumberAfter(body, "queue_ms") * 1e-3;
  reply.check_s = NumberAfter(body, "check_seconds") - frontend;
  if (report_end == std::string::npos || report_end <= report_begin || frontend < 0 ||
      reply.queue_s < 0 || reply.check_s < 0) {
    failures->Add(what + ": malformed envelope");
    return reply;
  }
  reply.report = body.substr(report_begin, report_end - report_begin);
  reply.ok = true;
  return reply;
}

constexpr size_t kClientsPerTenant = 2;
const char* const kTenants[] = {"alpha", "beta"};
// Service set-ups per run: each starts a service and sends one cold request
// per tenant (svc-warm) or one in all (svc-cold).
constexpr size_t kServiceSetups = 3;
// svc-warm: enough warm requests for the tail to be a p99.
constexpr size_t kMinWarmRequests = 1000;
// svc-cold: tenants the requests rotate through. Twice the default of 8
// resident sessions, so a tenant's session is normally evicted before its
// next turn and nearly every request builds a fresh one.
constexpr size_t kColdTenants = 16;

// Sends one /check, checks the reply and records the request's spans:
// the client round trip, and inside it the queue wait and the Check the
// envelope reports. Returns the round trip in seconds (0 on failure).
double SendCheck(Tracer* t, const std::string& stage, uint64_t parent, uint64_t request,
                 int port, const std::string& tenant, const std::string& text, Warmth expect,
                 const std::string& expected_reports, Failures* failures, Reply* reply) {
  Timed round_trip(t, "svc.request", stage, parent, request);
  HttpReply http = Post(port, "/check?tenant=" + tenant, text);
  double seconds = round_trip.Stop();
  *reply = ReadReply(http, expect, expected_reports, tenant + " request", failures);
  if (!reply->ok) {
    return 0;
  }
  if (t != nullptr) {
    // The envelope gives durations, not instants: lay the queue wait at the
    // start of the round trip and the Check right after it.
    int64_t begin = round_trip.start_ns();
    RecordDerived(t, "service.queue", stage, round_trip.id(), request, begin, reply->queue_s);
    RecordDerived(t, "core.check", stage, round_trip.id(), request,
                  begin + static_cast<int64_t>(reply->queue_s * 1e9), reply->check_s,
                  std::string("{\"warm\":") + (reply->warm ? "true" : "false") +
                      ",\"report\":" + reply->report + "}");
  }
  return seconds;
}

// Both service workloads: an in-process GrappleService with default options
// on an ephemeral port, driven over loopback by a closed loop of 4 clients
// that each send their next request when the reply arrives. svc-warm: two
// tenants, each request served by the tenant's resident session (the alias
// phase is cached). svc-cold (`cold`): requests rotate through 16 tenants, so
// each builds a new session (parse, frontend, alias phase, checkers) and
// evicts an old one.
Outcome RunService(const Args& args, bool cold, Tracer* tracer, Failures* failures) {
  Outcome outcome;
  std::vector<Subject> subjects = MakeSubjects(args, grapple::ZooKeeperPreset(1.0), 1, failures);
  if (subjects.empty()) {
    return outcome;
  }
  const std::string& text = subjects[0].text;

  // The reference verdict: a one-shot session over the same text, checked
  // against the generator's ground truth. Every reply must carry exactly
  // its reports.
  std::string expected_reports;
  uint64_t next_request = 1;
  {
    GrappleOptions options;
    options.engine.simulated_solve_latency_us = args.inject_solve_us;
    options.work_dir = args.work_dir + "/reference";
    std::filesystem::create_directories(options.work_dir);
    uint64_t request = next_request++;
    Timed root(tracer, "reference", "setup", 0, request);
    grapple::ParseResult parsed;
    {
      Timed parse(tracer, "ir.parse", "setup", root.id(), request);
      parsed = grapple::ParseProgram(text);
    }
    if (!parsed.ok) {
      failures->Add("subject does not parse: " + parsed.error);
      return outcome;
    }
    std::unique_ptr<grapple::Grapple> session;
    {
      Timed frontend(tracer, "core.frontend", "setup", root.id(), request);
      session = std::make_unique<grapple::Grapple>(std::move(parsed.program), options);
    }
    GrappleResult result;
    {
      Timed check(tracer, "core.check", "setup", root.id(), request);
      result = session->Check(grapple::AllBuiltinCheckers());
      check.Stop();
      if (tracer != nullptr) {
        check.SetAttrs("{\"warm\":false,\"report\":" + result.report.ToJson() + "}");
      }
    }
    session.reset();
    std::filesystem::remove_all(options.work_dir);
    std::string problems = VerifyVerdicts(subjects[0].truth, result);
    if (!problems.empty()) {
      failures->Add("reference verdict: " + problems);
    }
    expected_reports = "\"reports\":" + AllReportsJson(result) + ",\"report\":";
  }

  // Set-up, several times over: start a service and send the first cold
  // request (frontend + alias phase + checkers) of each tenant, or of one
  // tenant on svc-cold. The last service stays up for the closed loop.
  std::vector<double> setup_s;
  std::unique_ptr<grapple::GrappleService> service;
  auto stop_service = [&service] {
    std::string root = service->work_root();
    service->Shutdown();
    service.reset();
    std::filesystem::remove_all(root);
  };
  for (size_t k = 0; k < kServiceSetups; ++k) {
    if (service != nullptr) {
      stop_service();
    }
    grapple::ServiceOptions service_options;
    service_options.work_root = args.work_dir + "/service-" + std::to_string(k);
    service_options.session.engine.simulated_solve_latency_us = args.inject_solve_us;
    service = std::make_unique<grapple::GrappleService>(service_options);
    uint64_t request = next_request++;
    Timed root(tracer, "svc.setup", "setup", 0, request);
    std::string error;
    {
      Timed start(tracer, "service.start", "setup", root.id(), request);
      if (!service->Start(&error)) {
        failures->Add("service start: " + error);
        return outcome;
      }
    }
    for (size_t i = 0; i < (cold ? 1 : std::size(kTenants)); ++i) {
      Reply reply;
      ++outcome.attempted;
      SendCheck(tracer, "setup", root.id(), request, service->port(), kTenants[i], text,
                Warmth::kCold, expected_reports, failures, &reply);
    }
    setup_s.push_back(root.Stop());
  }
  std::fprintf(stderr, "perf_bench:   service set-up median %.4f s over %zu\n", Median(setup_s),
               setup_s.size());

  // The closed loop, until the run length has passed (and, for svc-warm,
  // enough requests have completed).
  struct ClientLog {
    std::vector<double> round_trip_s, queue_s, check_s, traced_check_s, untraced_check_s;
    size_t attempted = 0;
  };
  std::vector<ClientLog> logs(kClientsPerTenant * std::size(kTenants));
  std::atomic<size_t> completed{0};
  std::atomic<uint64_t> request_ids{next_request};
  std::atomic<size_t> cold_turns{0};
  size_t min_requests = cold ? 1 : kMinWarmRequests;
  int port = service->port();
  int64_t loop_begin = NowNs();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < logs.size(); ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      for (size_t i = 0;; ++i) {
        double elapsed = SecondsBetween(loop_begin, NowNs());
        if ((elapsed >= args.seconds && completed.load() >= min_requests) ||
            elapsed > kHardStopSeconds) {
          return;
        }
        std::string tenant = kTenants[c % std::size(kTenants)];
        if (cold) {
          tenant = "t";
          tenant += std::to_string(cold_turns.fetch_add(1) % kColdTenants);
        }
        Tracer* t = i % 2 == 0 ? tracer : nullptr;
        Reply reply;
        ++log.attempted;
        double seconds = SendCheck(t, "measure", 0, request_ids.fetch_add(1), port, tenant,
                                   text, cold ? Warmth::kEither : Warmth::kWarm,
                                   expected_reports, failures, &reply);
        if (!reply.ok) {
          continue;
        }
        completed.fetch_add(1);
        log.round_trip_s.push_back(seconds);
        log.queue_s.push_back(reply.queue_s);
        log.check_s.push_back(reply.check_s);
        (t != nullptr ? log.traced_check_s : log.untraced_check_s).push_back(reply.check_s);
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  double loop_s = SecondsBetween(loop_begin, NowNs());
  grapple::ServiceStats stats = service->Stats();
  stop_service();
  if (SecondsBetween(loop_begin, NowNs()) > kHardStopSeconds) {
    failures->Add("closed loop exceeded " + std::to_string(kHardStopSeconds) + " s");
  }

  ClientLog all;
  for (const ClientLog& log : logs) {
    for (auto [to, from] : {std::pair{&all.round_trip_s, &log.round_trip_s},
                            std::pair{&all.queue_s, &log.queue_s},
                            std::pair{&all.check_s, &log.check_s},
                            std::pair{&all.traced_check_s, &log.traced_check_s},
                            std::pair{&all.untraced_check_s, &log.untraced_check_s}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    all.attempted += log.attempted;
  }
  outcome.attempted += all.attempted;
  size_t served = all.round_trip_s.size();
  double tail = TailPercentile(served);
  std::fprintf(stderr,
               "perf_bench:   %zu %s requests in %.2f s, p50 %.2f ms, p%.1f %.2f ms\n", served,
               cold ? "cold" : "warm", loop_s, 1e3 * Median(all.round_trip_s), tail,
               1e3 * Percentile(all.round_trip_s, tail));
  uint64_t acquisitions = stats.warm_hits + stats.cold_misses + stats.bypasses;
  outcome.metrics = {
      {"check_s", Median(all.check_s)},
      {"setup_s", Median(setup_s)},
      {"checks_per_s", loop_s > 0 ? static_cast<double>(served) / loop_s : 0},
      {"latency_p50_ms", 1e3 * Median(all.round_trip_s)},
      {"latency_tail_ms", 1e3 * Percentile(all.round_trip_s, tail)},
  };
  outcome.samples = {
      {"verdicts", static_cast<double>(served)},
      {"setups", static_cast<double>(setup_s.size())},
      {"tail_percentile", tail},
      {"service_warm_hit_rate",
       acquisitions > 0 ? static_cast<double>(stats.warm_hits) / static_cast<double>(acquisitions)
                        : 0},
      {"service_rejected", static_cast<double>(stats.admission.rejected)},
      {"service_errors", static_cast<double>(stats.errors)},
      {"service_evictions", static_cast<double>(stats.evictions)},
  };
  outcome.trace_overhead_pct = OverheadPct(all.traced_check_s, all.untraced_check_s);
  return outcome;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  std::unique_ptr<Tracer> tracer = args.trace_out.empty() ? nullptr : std::make_unique<Tracer>();
  Failures failures;
  Outcome outcome;
  std::filesystem::create_directories(args.work_dir);
  if (args.workload == "batch-hbase" || args.workload == "ooc-hdfs") {
    outcome = RunBatch(args, args.workload == "ooc-hdfs", tracer.get(), &failures);
  } else if (args.workload == "svc-warm" || args.workload == "svc-cold") {
    outcome = RunService(args, args.workload == "svc-cold", tracer.get(), &failures);
  } else {
    std::fprintf(stderr, "perf_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  outcome.metrics.emplace_back("peak_rss_mb", PeakRssMb());
  if (tracer != nullptr && !tracer->Write(args.trace_out)) {
    failures.Add("cannot write trace " + args.trace_out);
  }

  grapple::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("attempted").UInt(outcome.attempted);
  w.Key("failed").UInt(failures.count());
  w.Key("errors").BeginArray();
  for (const std::string& message : failures.messages()) {
    w.String(message);
  }
  w.EndArray();
  w.Key("metrics").BeginObject();
  for (const auto& [name, value] : outcome.metrics) {
    w.Key(name).Double(value);
  }
  w.EndObject();
  w.Key("samples").BeginObject();
  for (const auto& [name, value] : outcome.samples) {
    w.Key(name).Double(value);
  }
  w.EndObject();
  w.Key("trace_overhead_pct").Double(outcome.trace_overhead_pct);
  w.EndObject();
  std::printf("%s\n", w.Take().c_str());
  return 0;
}
