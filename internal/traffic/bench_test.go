package traffic

import (
	"context"
	"testing"
	"time"
)

// BenchmarkEngineStep measures one steady-state slot at n=1000 with
// allocation reporting — the number behind the zero-alloc acceptance
// gate.
func BenchmarkEngineStep(b *testing.B) {
	pp := paperPrepared(b, 1000, 51)
	eng, err := New(pp, Config{
		Slots:    1 << 30,
		Arrivals: Bernoulli{P: 0.05},
		QueueCap: 4,
		Policy:   PolicyMaxQueue,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := eng.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput drives ≥1M packets through n=5000 links
// per iteration (saturating arrivals: 5000 links × 250 slots = 1.25M
// packets offered) and reports simulated packets/sec. One interference
// field serves the whole run; the per-slot loop is allocation-free.
//
// The dense field fills a sender's factor row the first time a solve
// reads it, so one untimed warm-up run pays those one-time fills and
// the timed runs measure the steady-state slot loop. The warm-up's
// wall time is reported as warmup-ms rather than hidden.
func BenchmarkEngineThroughput(b *testing.B) {
	const (
		n     = 5000
		slots = 250
	)
	pp := paperPrepared(b, n, 51)
	run := func(seed uint64) int64 {
		eng, err := New(pp, Config{
			Slots:    slots,
			Arrivals: Bernoulli{P: 1},
			QueueCap: 4,
			Policy:   PolicyMaxQueue,
			Seed:     seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := eng.Run(context.Background())
		if res.Arrived < 1_000_000 {
			b.Fatalf("simulated only %d packets, want ≥ 1M", res.Arrived)
		}
		return res.Arrived
	}
	start := time.Now()
	run(0)
	warmup := time.Since(start)
	b.ReportAllocs()
	b.ResetTimer()
	var packets int64
	for i := 0; i < b.N; i++ {
		packets += run(uint64(i + 1))
	}
	b.StopTimer()
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(packets)/float64(b.N), "packets/op")
	b.ReportMetric(float64(warmup.Microseconds())/1e3, "warmup-ms")
}
