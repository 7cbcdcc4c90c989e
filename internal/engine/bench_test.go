package engine

import (
	"testing"
)

// The scheduler-path benchmarks behind CI's perf-regression job: one
// full shared-prefix trace through the Stepper with the prefix cache
// off and on. The cached variant must not regress against the uncached
// one — reuse is supposed to remove work from the hottest path the
// serving layer has.

func benchmarkSharedPrefixTrace(b *testing.B, prefixCache bool) {
	reqs := sharedPrefixTrace(16, 256, 32, 8, 0.05)
	e := newPrefixTestEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := drivePrefixTrace(b, e, reqs, prefixCache, 64)
		if prefixCache && sp.PrefixHits() == 0 {
			b.Fatal("benchmark workload produced no prefix hits")
		}
	}
}

func BenchmarkStepperSharedPrefixUncached(b *testing.B) { benchmarkSharedPrefixTrace(b, false) }
func BenchmarkStepperSharedPrefixCached(b *testing.B)   { benchmarkSharedPrefixTrace(b, true) }

// BenchmarkStepperSharedPrefixCompressed runs the cached trace with
// cold blocks stored compressed, with arrivals spaced so blocks go cold
// between requests: every claim after the first thaws through the
// TCA-TBE codec, so the real freeze/decompress cost sits on the
// scheduler path this benchmark guards.
func BenchmarkStepperSharedPrefixCompressed(b *testing.B) {
	reqs := sharedPrefixTrace(16, 256, 32, 8, 5.0)
	e := newPrefixTestEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := driveCompressedTrace(b, e, reqs, 64)
		if sp.DecompressClaims() == 0 {
			b.Fatal("benchmark workload never thawed a block")
		}
	}
}

// BenchmarkStepperDecodeHeavy isolates the decode loop (allocator
// AppendToken + cost model) that every serving configuration shares.
func BenchmarkStepperDecodeHeavy(b *testing.B) {
	e := newPrefixTestEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := NewStepper(e)
		if err != nil {
			b.Fatal(err)
		}
		sp.PackedPrefill = true
		for id := 1; id <= 32; id++ {
			if err := sp.Admit(Request{ID: id, PromptLen: 64, OutputLen: 64}); err != nil {
				b.Fatal(err)
			}
		}
		sp.Prefill()
		for sp.InFlight() > 0 {
			if _, _, err := sp.DecodeStep(); err != nil {
				b.Fatal(err)
			}
		}
		if err := sp.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// The cost-model row of the layer ladder: one decode-step price or one
// prefill price per op, on chat-unique-like shapes. direct calls the
// exported Engine method, which runs the kernel model every call;
// stepper prices through a Stepper's GEMM table after a warm-up pass
// has filled it, as the scheduler does at steady state.

// costDecodeShapes are (batch, summed context) pairs: batches of 1–4
// with a few hundred tokens of context each.
var costDecodeShapes = [][2]int{{1, 180}, {1, 420}, {2, 530}, {2, 760}, {3, 900}, {3, 1150}, {4, 1300}, {4, 1640}}

// costPrefillShapes are single final chunks of 64–512 tokens.
var costPrefillShapes = [][]PrefillChunk{
	{{Tokens: 64, Final: true}}, {{Tokens: 128, Final: true}}, {{Tokens: 200, Final: true}},
	{{Tokens: 256, Final: true}}, {{Tokens: 384, Final: true}}, {{Tokens: 512, Final: true}},
}

var costSink float64

func BenchmarkBatchDecodeStepTime(b *testing.B) {
	e := newPrefixTestEngine(b)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := costDecodeShapes[i%len(costDecodeShapes)]
			costSink += e.BatchDecodeStepTime(s[0], s[1])
		}
	})
	b.Run("stepper", func(b *testing.B) {
		sp, err := NewStepper(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range costDecodeShapes {
			costSink += e.batchDecodeStepTime(&sp.gemm, s[0], s[1])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := costDecodeShapes[i%len(costDecodeShapes)]
			costSink += e.batchDecodeStepTime(&sp.gemm, s[0], s[1])
		}
	})
}

func BenchmarkChunkedPrefillTime(b *testing.B) {
	e := newPrefixTestEngine(b)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			costSink += e.ChunkedPrefillTime(costPrefillShapes[i%len(costPrefillShapes)])
		}
	})
	b.Run("stepper", func(b *testing.B) {
		sp, err := NewStepper(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range costPrefillShapes {
			costSink += e.chunkedPrefillTime(&sp.gemm, c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			costSink += e.chunkedPrefillTime(&sp.gemm, costPrefillShapes[i%len(costPrefillShapes)])
		}
	})
}
