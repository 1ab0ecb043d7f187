//===- support/PassTimer.cpp - Pipeline step timing and metrics ---------------===//

#include "support/PassTimer.h"

#include "support/Diagnostics.h"
#include "support/LineCodec.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace specpre;

const char *specpre::pipelineStepName(PipelineStep S) {
  switch (S) {
  case PipelineStep::PhiInsertion:
    return "phi-insertion";
  case PipelineStep::Rename:
    return "rename";
  case PipelineStep::DataFlow:
    return "data-flow";
  case PipelineStep::Reduction:
    return "reduction";
  case PipelineStep::MinCut:
    return "min-cut";
  case PipelineStep::SafePlacement:
    return "safe-placement";
  case PipelineStep::Finalize:
    return "finalize";
  case PipelineStep::CodeMotion:
    return "code-motion";
  case PipelineStep::Verify:
    return "verify";
  case PipelineStep::Count:
    break;
  }
  SPECPRE_UNREACHABLE("bad pipeline step");
}

void PipelineMetrics::note(PipelineStep S, uint64_t Nanos,
                           uint64_t ProblemSize) {
  StepMetrics &M = Steps[static_cast<unsigned>(S)];
  ++M.Invocations;
  M.Nanos += Nanos;
  M.ProblemSize += ProblemSize;
}

uint64_t PipelineMetrics::totalNanos() const {
  uint64_t Total = 0;
  for (const StepMetrics &M : Steps)
    Total += M.Nanos;
  return Total;
}

namespace {

/// How shards combine one counter.
enum class Fold { Sum, Max };

/// One row of a field table: a counter's JSON key, the member holding
/// it, its fold, and whether it holds nanoseconds exported as millis.
template <class Record> struct Field {
  const char *Key;
  uint64_t Record::*Member;
  Fold How = Fold::Sum;
  bool NanosAsMillis = false;
};

// The tables, in export order.
const Field<StepMetrics> StepFields[] = {
    {"invocations", &StepMetrics::Invocations},
    {"millis", &StepMetrics::Nanos, Fold::Sum, true},
    {"problem_size", &StepMetrics::ProblemSize},
};

const Field<RobustnessCounters> RobustnessFields[] = {
    {"functions_compiled", &RobustnessCounters::FunctionsCompiled},
    {"functions_degraded", &RobustnessCounters::FunctionsDegraded},
    {"ladder_retries", &RobustnessCounters::LadderRetries},
    {"worker_failures", &RobustnessCounters::WorkerFailures},
};

const Field<LospreCounters> LospreFields[] = {
    {"solved", &LospreCounters::Solved},
    {"bailouts", &LospreCounters::Bailouts},
    {"width_peak", &LospreCounters::WidthPeak, Fold::Max},
    {"dp_entries", &LospreCounters::DpEntries},
};

const Field<CacheCounters> CacheFields[] = {
    {"hits", &CacheCounters::Hits},
    {"misses", &CacheCounters::Misses},
    {"stores", &CacheCounters::Stores},
    {"evictions", &CacheCounters::Evictions},
    {"disk_hits", &CacheCounters::DiskHits},
    {"disk_writes", &CacheCounters::DiskWrites},
    {"disk_evictions", &CacheCounters::DiskEvictions},
    {"verify_mismatches", &CacheCounters::VerifyMismatches},
    {"corrupt_dropped", &CacheCounters::CorruptDropped},
    {"disk_io_errors", &CacheCounters::DiskIoErrors},
    {"breaker_opens", &CacheCounters::BreakerOpens},
    {"breaker_short_circuits", &CacheCounters::BreakerShortCircuits},
    // A gauge, not an event count: keep the most-degraded observed state.
    {"breaker_state", &CacheCounters::BreakerState, Fold::Max},
    {"scrub_scanned", &CacheCounters::ScrubScanned},
    {"scrub_quarantined", &CacheCounters::ScrubQuarantined},
    {"train_hits", &CacheCounters::TrainHits},
    {"train_misses", &CacheCounters::TrainMisses},
    {"train_stores", &CacheCounters::TrainStores},
    {"fault_bypasses", &CacheCounters::FaultBypasses},
    {"degraded_unstored", &CacheCounters::DegradedUnstored},
};

const Field<ServiceCounters> ServiceFields[] = {
    {"requests_received", &ServiceCounters::RequestsReceived},
    {"requests_succeeded", &ServiceCounters::RequestsSucceeded},
    {"requests_failed", &ServiceCounters::RequestsFailed},
    {"requests_degraded", &ServiceCounters::RequestsDegraded},
    {"queue_depth_peak", &ServiceCounters::QueueDepthPeak, Fold::Max},
    {"queue_wait_millis", &ServiceCounters::QueueWaitNanos, Fold::Sum, true},
    {"compile_millis", &ServiceCounters::CompileNanos, Fold::Sum, true},
    {"worker_crashes", &ServiceCounters::WorkerCrashes},
    {"deadline_kills", &ServiceCounters::DeadlineKills},
    {"quarantined", &ServiceCounters::Quarantined},
    {"shed", &ServiceCounters::Shed},
    {"retries", &ServiceCounters::Retries},
};

/// Calls \p Visit(Key, Fields, Group...) for each counter group in
/// document order, passing the matching group of every shard in \p M.
template <class Visitor, class... Metrics>
void forEachGroup(Visitor &&Visit, Metrics &...M) {
  Visit("robustness", RobustnessFields, M.robustness()...);
  Visit("lospre", LospreFields, M.lospre()...);
  Visit("cache", CacheFields, M.cache()...);
  Visit("service", ServiceFields, M.service()...);
}

/// Appends `"key": value, ...` for every row: counters as integers,
/// nanoseconds as millis with six decimals.
template <class Record, size_t N>
void appendFields(std::string &Out, const Field<Record> (&Fields)[N],
                  const Record &R) {
  for (const Field<Record> &F : Fields) {
    char Buf[64];
    if (F.NanosAsMillis)
      std::snprintf(Buf, sizeof(Buf), "\"%s\": %.6f", F.Key,
                    static_cast<double>(R.*F.Member) / 1e6);
    else
      std::snprintf(Buf, sizeof(Buf), "\"%s\": %llu", F.Key,
                    static_cast<unsigned long long>(R.*F.Member));
    Out += &F == Fields ? "" : ", ";
    Out += Buf;
  }
}

} // namespace

template <class Visitor, class... Metrics>
void PipelineMetrics::forEachCounter(Visitor &&Visit, Metrics &...M) {
  auto Rows = [&](const auto &Fields, auto &...R) {
    for (const auto &F : Fields)
      Visit(F, R.*F.Member...);
  };
  for (unsigned I = 0; I != NumPipelineSteps; ++I)
    Rows(StepFields, M.Steps[I]...);
  forEachGroup([&](const char *, const auto &Fields,
                   auto &...Group) { Rows(Fields, Group...); },
               M...);
}

void PipelineMetrics::merge(const PipelineMetrics &Other) {
  forEachCounter(
      [](const auto &F, uint64_t &Into, uint64_t From) {
        Into = F.How == Fold::Max ? std::max(Into, From) : Into + From;
      },
      *this, Other);
}

std::string PipelineMetrics::toJson(unsigned Jobs) const {
  std::string Out = "{\"jobs\": " + std::to_string(Jobs) + ",\n\"steps\": [";
  for (unsigned I = 0; I != NumPipelineSteps; ++I) {
    Out += I ? ",\n  {\"step\": \"" : "\n  {\"step\": \"";
    Out += pipelineStepName(static_cast<PipelineStep>(I));
    Out += "\", ";
    appendFields(Out, StepFields, Steps[I]);
    Out += '}';
  }
  Out += "\n]";
  forEachGroup(
      [&](const char *Key, const auto &Fields, const auto &Group) {
        Out += ",\n\"" + std::string(Key) + "\": {";
        appendFields(Out, Fields, Group);
        Out += '}';
      },
      *this);
  return Out + '}';
}

std::string PipelineMetrics::encode() const {
  std::string Out;
  forEachCounter(
      [&](const auto &, uint64_t V) {
        Out += (Out.empty() ? "" : " ") + std::to_string(V);
      },
      *this);
  return Out;
}

bool PipelineMetrics::decode(const std::string &Text, PipelineMetrics &Out) {
  const std::vector<std::string> Tokens = linecodec::splitTokens(Text);
  size_t Next = 0;
  bool Ok = true;
  PipelineMetrics M;
  forEachCounter(
      [&](const auto &, uint64_t &V) {
        Ok = Ok && Next != Tokens.size() &&
             linecodec::parseU64(Tokens[Next++], V);
      },
      M);
  if (!Ok || Next != Tokens.size())
    return false;
  Out = M;
  return true;
}

namespace {
thread_local PipelineMetrics *CurrentSink = nullptr;
} // namespace

PipelineMetrics *specpre::currentMetricsSink() { return CurrentSink; }

MetricsScope::MetricsScope(PipelineMetrics *M) : Prev(CurrentSink) {
  CurrentSink = M;
}

MetricsScope::~MetricsScope() { CurrentSink = Prev; }
