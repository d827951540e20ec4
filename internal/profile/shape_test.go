package profile

import (
	"math/rand"
	"testing"
)

// The shape suite: the profile shapes the kernel's block design was chosen
// on, written against NewTree and the Kernel interface only. Run with
//
//	go test -run '^$' -bench Shape -benchtime 1x ./internal/profile
//
// Each op of the pass benchmarks places a whole queue on a fresh 256-node
// profile at t = 0, one one-request StartMany per job, as the conservative
// walk does. -short keeps the 1k and 4k fragmented passes and the 10k
// staircase. Besides time, each benchmark reports the final step count
// and Stats.Scanned (steps plus block and group bounds visited) per op,
// counted on one extra untimed op.

// BenchmarkShapeFragmented is the profile conservative backfilling
// builds: widths 1–200 and estimates 60–20,060 s, so the profile crosses
// a typical job's width at nearly every block.
func BenchmarkShapeFragmented(b *testing.B) {
	for _, jobs := range []int{1_000, 4_000, 16_000, 64_000} {
		b.Run(name("jobs", jobs), func(b *testing.B) {
			if testing.Short() && jobs > 4_000 {
				b.Skip("-short")
			}
			r := rand.New(rand.NewSource(1))
			reqs := make([]StartReq, jobs)
			for i := range reqs {
				reqs[i] = StartReq{Nodes: 1 + r.Intn(200), Duration: 60 + int64(r.Intn(20_001))}
			}
			benchShapePass(b, reqs)
		})
	}
}

// BenchmarkShapeStaircase is BENCH_3's capability backlog: every job is
// wider than half the machine (widths 129/130), so each one stacks after
// the previous and a placement must cross the whole profile.
func BenchmarkShapeStaircase(b *testing.B) {
	for _, jobs := range []int{10_000, 20_000, 100_000} {
		b.Run(name("jobs", jobs), func(b *testing.B) {
			if testing.Short() && jobs > 10_000 {
				b.Skip("-short")
			}
			r := rand.New(rand.NewSource(1))
			reqs := make([]StartReq, jobs)
			for i := range reqs {
				reqs[i] = StartReq{Nodes: 129 + i%2, Duration: 60 + int64(r.Intn(20_001))}
			}
			benchShapePass(b, reqs)
		})
	}
}

// benchShapePass times whole placement passes of reqs.
func benchShapePass(b *testing.B, reqs []StartReq) {
	var k Kernel = NewTree(256, 0)
	var req [1]StartReq
	var starts []int64
	pass := func() {
		k.Reset(256, 0)
		k.BeginPass(0)
		for _, r := range reqs {
			req[0] = r
			starts = k.StartMany(req[:], starts[:0])
		}
		k.CommitPass()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	b.ReportMetric(float64(k.StepCount()), "steps")
	var st Stats
	k.SetStats(&st)
	pass()
	b.ReportMetric(float64(st.Scanned), "scanned/op")
}

// BenchmarkShapeEarliestFitDeep is BENCH_3's deep query: on a 4-node
// machine, 131,072 reservations leave 1 and 2 nodes free in turn, so a
// 3-wide job fits only past every step. Each op is 64 queries from
// evenly spaced times.
func BenchmarkShapeEarliestFitDeep(b *testing.B) {
	const steps = 1 << 17
	b.Run(name("steps", steps), func(b *testing.B) {
		if testing.Short() {
			b.Skip("-short")
		}
		var k Kernel = NewTree(4, 0)
		span := int64(steps) * 10
		k.Reserve(2, 0, span)
		for i := 0; i < steps; i++ {
			at := int64(i) * 10
			k.Reserve(1, at, at+5)
		}
		queries := func() {
			for from := int64(0); from < span; from += span / 64 {
				if k.EarliestFit(3, 50, from) != span {
					b.Fatal("a 3-wide job fit inside the blocked span")
				}
			}
		}
		queries() // settle what the build left for the first query to do
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			queries()
		}
		b.StopTimer()
		b.ReportMetric(float64(k.StepCount()), "steps")
		var st Stats
		k.SetStats(&st)
		queries()
		b.ReportMetric(float64(st.Scanned), "scanned/op")
	})
}
