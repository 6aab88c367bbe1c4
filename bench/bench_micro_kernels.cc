// Microbenchmarks (google-benchmark) for the hot paths the paper's §6
// motivates: interpreted one-row-at-a-time expression evaluation versus
// tight-loop vectorized kernels, plus the ORC stream encoders and the LZ
// codecs. Run with --benchmark_filter=... to narrow.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "codec/codec.h"
#include "common/random.h"
#include "exec/expr.h"
#include "mr/shuffle_record.h"
#include "orc/stream_encoding.h"
#include "vec/simd.h"
#include "vec/vector_expressions.h"

namespace minihive {
namespace {

using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;

// ---- Row-mode vs vectorized expression: price * (1 - discount).

ExprPtr DiscountExpr() {
  return Expr::Binary(
      ExprKind::kMul, Expr::Column(0, TypeKind::kDouble),
      Expr::Binary(ExprKind::kSub,
                   Expr::Literal(Value::Double(1.0), TypeKind::kDouble),
                   Expr::Column(1, TypeKind::kDouble)));
}

void BM_RowModeExpression(benchmark::State& state) {
  ExprPtr expr = DiscountExpr();
  Random rng(1);
  std::vector<Row> rows;
  for (int i = 0; i < 1024; ++i) {
    rows.push_back({Value::Double(rng.NextDouble() * 100),
                    Value::Double(rng.NextDouble() * 0.1)});
  }
  double sink = 0;
  for (auto _ : state) {
    for (const Row& row : rows) {
      sink += expr->Eval(row).AsDouble();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RowModeExpression);

void BM_VectorizedExpression(benchmark::State& state) {
  vec::BatchCompiler compiler({TypeKind::kDouble, TypeKind::kDouble});
  int out = -1;
  auto compiled = compiler.CompileProjection(*DiscountExpr(), &out);
  auto batch = vec::MakeBatchFor(compiler.column_types(), 1024);
  Random rng(1);
  for (int i = 0; i < 1024; ++i) {
    batch->DoubleCol(0)->vector[i] = rng.NextDouble() * 100;
    batch->DoubleCol(1)->vector[i] = rng.NextDouble() * 0.1;
  }
  batch->size = 1024;
  double sink = 0;
  for (auto _ : state) {
    (*compiled)->Evaluate(batch.get());
    sink += batch->DoubleCol(out)->vector[17];
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VectorizedExpression);

// ---- Row-mode filter vs selected[]-narrowing vector filter.

void BM_RowModeFilter(benchmark::State& state) {
  ExprPtr pred = Expr::Between(
      Expr::Column(0, TypeKind::kDouble),
      Expr::Literal(Value::Double(0.05), TypeKind::kDouble),
      Expr::Literal(Value::Double(0.07), TypeKind::kDouble));
  Random rng(2);
  std::vector<Row> rows;
  for (int i = 0; i < 1024; ++i) {
    rows.push_back({Value::Double(rng.NextDouble() * 0.1)});
  }
  int64_t sink = 0;
  for (auto _ : state) {
    for (const Row& row : rows) {
      Value v = pred->Eval(row);
      if (!v.is_null() && v.AsBool()) ++sink;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RowModeFilter);

void BM_VectorizedFilter(benchmark::State& state) {
  vec::BatchCompiler compiler({TypeKind::kDouble});
  auto filters = compiler.CompileFilter(Expr::Between(
      Expr::Column(0, TypeKind::kDouble),
      Expr::Literal(Value::Double(0.05), TypeKind::kDouble),
      Expr::Literal(Value::Double(0.07), TypeKind::kDouble)));
  auto batch = vec::MakeBatchFor(compiler.column_types(), 1024);
  Random rng(2);
  for (int i = 0; i < 1024; ++i) {
    batch->DoubleCol(0)->vector[i] = rng.NextDouble() * 0.1;
  }
  batch->size = 1024;
  int64_t sink = 0;
  for (auto _ : state) {
    batch->selected_in_use = false;
    batch->selected_size = 0;
    for (auto& f : *filters) f->Filter(batch.get());
    sink += batch->selected_size;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VectorizedFilter);

// ---- SIMD kernels, every dispatched one on both arms. Arg(0) = the scalar
// arm, Arg(1) = the runtime-dispatched (AVX2 when available) arm: the same
// loop source built for the two targets (vec/simd.h), which the vectorized
// filters, the arithmetic expressions and the ORC phase-1 SARG use. Results
// are byte-identical across arms; only the rate should differ. Inputs mimic
// the TPC-H Q1/Q6 predicates and expressions the kernels serve.

constexpr int kSimdBenchRows = 4096;

/// Times `kernel` (one call over kSimdBenchRows rows) on the arm that
/// state.range(0) selects.
template <typename Fn>
void RunOnArm(benchmark::State& state, Fn kernel) {
  simd::SetEnabled(state.range(0) != 0);
  for (auto _ : state) kernel();
  state.SetItemsProcessed(state.iterations() * kSimdBenchRows);
  simd::SetEnabled(true);
}

/// A compare/between kernel's mask, compacted into selected[] as the
/// vectorized filters do.
template <typename T, typename MaskFn>
void BenchMask(benchmark::State& state, const std::vector<T>& vals,
               MaskFn mask_fn) {
  std::vector<uint8_t> mask(vals.size());
  std::vector<int> sel(vals.size());
  int64_t sink = 0;
  RunOnArm(state, [&] {
    mask_fn(vals.data(), mask.data());
    sink += simd::MaskToSelected(mask.data(), kSimdBenchRows, sel.data());
  });
  benchmark::DoNotOptimize(sink);
}

std::vector<int64_t> RandomInts(uint64_t seed, uint64_t lo, uint64_t span) {
  Random rng(seed);
  std::vector<int64_t> vals(kSimdBenchRows);
  for (auto& v : vals) v = static_cast<int64_t>(lo + rng.Uniform(span));
  return vals;
}

std::vector<double> RandomDoubles(uint64_t seed, double scale) {
  Random rng(seed);
  std::vector<double> vals(kSimdBenchRows);
  for (auto& v : vals) v = rng.NextDouble() * scale;
  return vals;
}

void BM_SimdCompareMaskI64(benchmark::State& state) {
  BenchMask(state, RandomInts(4, 0, 100000), [](const int64_t* in, uint8_t* m) {
    simd::CompareMask(simd::Cmp::kLt, in, int64_t{50000}, kSimdBenchRows, m);
  });
}
BENCHMARK(BM_SimdCompareMaskI64)->ArgName("simd")->Arg(0)->Arg(1);

// Q6's l_quantity < 24.
void BM_SimdCompareMaskF64(benchmark::State& state) {
  BenchMask(state, RandomDoubles(7, 50), [](const double* in, uint8_t* m) {
    simd::CompareMask(simd::Cmp::kLt, in, 24.0, kSimdBenchRows, m);
  });
}
BENCHMARK(BM_SimdCompareMaskF64)->ArgName("simd")->Arg(0)->Arg(1);

// Q6's shipdate range: days since 1970 in 1992..1998, one year selected.
void BM_SimdBetweenMaskI64(benchmark::State& state) {
  BenchMask(state, RandomInts(8, 8035, 2557),
            [](const int64_t* in, uint8_t* m) {
              simd::BetweenMask(in, int64_t{8766}, int64_t{9130},
                                kSimdBenchRows, m);
            });
}
BENCHMARK(BM_SimdBetweenMaskI64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_SimdBetweenMaskF64(benchmark::State& state) {
  BenchMask(state, RandomDoubles(5, 100), [](const double* in, uint8_t* m) {
    simd::BetweenMask(in, 25.0, 75.0, kSimdBenchRows, m);
  });
}
BENCHMARK(BM_SimdBetweenMaskF64)->ArgName("simd")->Arg(0)->Arg(1);

// Q1's 1 - l_discount (scalar on the left).
void BM_SimdArithScalarF64(benchmark::State& state) {
  std::vector<double> in = RandomDoubles(9, 0.1), out(kSimdBenchRows);
  RunOnArm(state, [&] {
    simd::ArithScalar(simd::Arith::kSub, in.data(), 1.0, /*scalar_left=*/true,
                      kSimdBenchRows, out.data());
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_SimdArithScalarF64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_SimdArithScalarI64(benchmark::State& state) {
  std::vector<int64_t> in = RandomInts(10, 0, 100000), out(kSimdBenchRows);
  RunOnArm(state, [&] {
    simd::ArithScalar(simd::Arith::kMul, in.data(), int64_t{100},
                      /*scalar_left=*/false, kSimdBenchRows, out.data());
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_SimdArithScalarI64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_SimdArithColColI64(benchmark::State& state) {
  std::vector<int64_t> a = RandomInts(11, 0, 100000),
                       b = RandomInts(12, 0, 100000), out(kSimdBenchRows);
  RunOnArm(state, [&] {
    simd::ArithColCol(simd::Arith::kMul, a.data(), b.data(), kSimdBenchRows,
                      out.data());
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_SimdArithColColI64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_SimdArithColColF64(benchmark::State& state) {
  Random rng(6);
  std::vector<double> a(kSimdBenchRows), b(kSimdBenchRows),
      out(kSimdBenchRows);
  for (int i = 0; i < kSimdBenchRows; ++i) {
    a[i] = rng.NextDouble() * 100;
    b[i] = rng.NextDouble() * 0.1;
  }
  RunOnArm(state, [&] {
    simd::ArithColCol(simd::Arith::kMul, a.data(), b.data(), kSimdBenchRows,
                      out.data());
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_SimdArithColColF64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_SimdArithColColF64Div(benchmark::State& state) {
  std::vector<double> a = RandomDoubles(13, 100), b = RandomDoubles(14, 0.1),
                      out(kSimdBenchRows);
  RunOnArm(state, [&] {
    simd::ArithColCol(simd::Arith::kDiv, a.data(), b.data(), kSimdBenchRows,
                      out.data());
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_SimdArithColColF64Div)->ArgName("simd")->Arg(0)->Arg(1);

// ---- ORC integer RLE vs raw varints.

void BM_IntRleEncodeMonotonic(benchmark::State& state) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 10000; ++i) values.push_back(i * 3);
  for (auto _ : state) {
    orc::IntRleEncoder encoder;
    for (int64_t v : values) encoder.Add(v);
    std::string out;
    encoder.Finish(&out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_IntRleEncodeMonotonic);

void BM_IntRleDecodeMonotonic(benchmark::State& state) {
  orc::IntRleEncoder encoder;
  for (int64_t i = 0; i < 10000; ++i) encoder.Add(i * 3);
  std::string encoded;
  encoder.Finish(&encoded);
  std::vector<int64_t> out(10000);
  for (auto _ : state) {
    orc::IntRleDecoder decoder(encoded);
    benchmark::DoNotOptimize(decoder.NextBatch(out.data(), out.size()).ok());
  }
  state.SetItemsProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_IntRleDecodeMonotonic);

// Random values below 2^20 (like l_partkey or day numbers): almost every
// token is a literal list of 3-byte varints.
void BM_IntRleDecodeLiterals(benchmark::State& state) {
  Random rng(20);
  orc::IntRleEncoder encoder;
  for (int i = 0; i < 10000; ++i) {
    encoder.Add(static_cast<int64_t>(rng.Uniform(1 << 20)));
  }
  std::string encoded;
  encoder.Finish(&encoded);
  std::vector<int64_t> out(10000);
  for (auto _ : state) {
    orc::IntRleDecoder decoder(encoded);
    benchmark::DoNotOptimize(decoder.NextBatch(out.data(), out.size()).ok());
  }
  state.SetItemsProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_IntRleDecodeLiterals);

// ---- Codec throughput on pseudo-text.

std::string PseudoTextPayload() {
  Random rng(3);
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                         "zeta", "eta", "theta"};
  std::string data;
  while (data.size() < (1 << 20)) {
    data += words[rng.Uniform(8)];
    data.push_back(' ');
  }
  return data;
}

void BM_FastLzCompress(benchmark::State& state) {
  std::string data = PseudoTextPayload();
  const codec::Codec* codec = codec::GetCodec(codec::CompressionKind::kFastLz);
  for (auto _ : state) {
    std::string out;
    benchmark::DoNotOptimize(codec->Compress(data, &out).ok());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_FastLzCompress);

void BM_FastLzDecompress(benchmark::State& state) {
  std::string data = PseudoTextPayload();
  const codec::Codec* codec = codec::GetCodec(codec::CompressionKind::kFastLz);
  std::string compressed;
  (void)codec->Compress(data, &compressed);
  for (auto _ : state) {
    std::string out;
    benchmark::DoNotOptimize(codec->Decompress(compressed, &out).ok());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_FastLzDecompress);

// ---- Shuffle key bytes (shuffle, map-join and hash-aggregation keys).

void BM_EncodeKey(benchmark::State& state) {
  Row key = {Value::Int(123456), Value::String("group-key-value")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mr::EncodeKey(key));
  }
}
BENCHMARK(BM_EncodeKey);

/// Console reporter that also stashes each run for the JSON report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) runs_.push_back(run);
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

int Main(int argc, char** argv) {
  // Smoke mode: shrink the per-benchmark measuring time so CI finishes in
  // seconds; kernels still run enough iterations to report sane rates.
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (bench::SmokeMode()) args.push_back(min_time.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());

  CapturingReporter capture;
  benchmark::RunSpecifiedBenchmarks(&capture);
  benchmark::Shutdown();

  bench::BenchReporter reporter("micro_kernels");
  reporter.AddMetric("benchmarks_run",
                     static_cast<double>(capture.runs().size()), "count");
  for (const auto& run : capture.runs()) {
    if (run.error_occurred) continue;
    std::string name = run.benchmark_name();
    reporter.AddMetric(name + ".real_time_ns", run.GetAdjustedRealTime(),
                       "ns");
    double items = run.counters.find("items_per_second") != run.counters.end()
                       ? static_cast<double>(
                             run.counters.at("items_per_second"))
                       : 0.0;
    if (items > 0) {
      reporter.AddMetric(name + ".items_per_second", items, "rate");
    }
    double bytes = run.counters.find("bytes_per_second") != run.counters.end()
                       ? static_cast<double>(
                             run.counters.at("bytes_per_second"))
                       : 0.0;
    if (bytes > 0) {
      reporter.AddMetric(name + ".bytes_per_second", bytes, "rate");
    }
  }
  reporter.Write();
  return 0;
}

}  // namespace
}  // namespace minihive

int main(int argc, char** argv) { return minihive::Main(argc, argv); }
