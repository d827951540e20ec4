package profile

import (
	"math/rand"
	"testing"
)

// BenchmarkEarliestFit measures the core backfilling query against a
// profile with many future reservations — the hot path of conservative
// backfilling under deep backlog. The Reference variant runs the
// brute-force oracle on the identical query stream: it is the "before"
// number of BENCH_1.json.
func BenchmarkEarliestFit(b *testing.B) {
	for _, steps := range []int{16, 256, 4096} {
		b.Run(name("steps", steps), func(b *testing.B) {
			p := buildProfile(steps)
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := 1 + r.Intn(200)
				d := int64(1 + r.Intn(10000))
				_ = p.EarliestFit(w, d, 0)
			}
		})
	}
}

// BenchmarkEarliestFitReference is BenchmarkEarliestFit on the
// brute-force oracle (the original implementation).
func BenchmarkEarliestFitReference(b *testing.B) {
	for _, steps := range []int{16, 256, 4096} {
		b.Run(name("steps", steps), func(b *testing.B) {
			p := buildReferenceProfile(steps)
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := 1 + r.Intn(200)
				d := int64(1 + r.Intn(10000))
				_ = p.EarliestFit(w, d, 0)
			}
		})
	}
}

// BenchmarkReserve measures reservation insertion (two splits + range
// update) at several profile sizes.
func BenchmarkReserve(b *testing.B) {
	for _, steps := range []int{16, 256, 4096} {
		b.Run(name("steps", steps), func(b *testing.B) {
			base := buildProfile(steps)
			r := rand.New(rand.NewSource(2))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := base.Clone()
				at := p.EarliestFit(1, 100, int64(r.Intn(100000)))
				p.Reserve(1, at, at+100)
			}
		})
	}
}

// BenchmarkReserveScratch is BenchmarkReserve with CloneInto into a
// reusable scratch profile instead of a fresh Clone per reservation — the
// allocation-free pattern of the conservative starter.
func BenchmarkReserveScratch(b *testing.B) {
	for _, steps := range []int{16, 256, 4096} {
		b.Run(name("steps", steps), func(b *testing.B) {
			base := buildProfile(steps)
			scratch := base.Clone()
			r := rand.New(rand.NewSource(2))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base.CloneInto(scratch)
				at := scratch.EarliestFit(1, 100, int64(r.Intn(100000)))
				scratch.Reserve(1, at, at+100)
			}
		})
	}
}

// BenchmarkConservativePass replays the inner loop of a conservative
// backfilling pass: reset the scratch profile and place a whole synthetic
// queue (EarliestFit + Reserve per job). This is the macro shape the
// skip-ahead scan and edge coalescing optimize.
func BenchmarkConservativePass(b *testing.B) {
	for _, queue := range []int{64, 512} {
		b.Run(name("queue", queue), func(b *testing.B) {
			r := rand.New(rand.NewSource(3))
			type jobShape struct {
				w int
				d int64
			}
			jobs := make([]jobShape, queue)
			for i := range jobs {
				jobs[i] = jobShape{w: 1 + r.Intn(200), d: int64(60 + r.Intn(20000))}
			}
			p := NewTree(256, 0)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Reset(256, 0)
				for _, j := range jobs {
					at := p.EarliestFit(j.w, j.d, 0)
					p.Reserve(j.w, at, at+j.d)
				}
			}
		})
	}
}

// BenchmarkMinFreeMonotone measures the cursor fast path: MinFree probed
// at monotonically increasing times, the access pattern of calendar
// admission checks.
func BenchmarkMinFreeMonotone(b *testing.B) {
	p := buildProfile(4096)
	span := int64(1) // probe stride
	b.ResetTimer()
	b.ReportAllocs()
	var t int64
	for i := 0; i < b.N; i++ {
		_ = p.MinFree(t, t+600)
		t += 37 * span
		if t > 400000 {
			t = 0
		}
	}
}

// BenchmarkMinFreeMonotoneReference is the oracle counterpart of
// BenchmarkMinFreeMonotone (full binary search every probe).
func BenchmarkMinFreeMonotoneReference(b *testing.B) {
	p := buildReferenceProfile(4096)
	b.ResetTimer()
	b.ReportAllocs()
	var t int64
	for i := 0; i < b.N; i++ {
		_ = p.MinFree(t, t+600)
		t += 37
		if t > 400000 {
			t = 0
		}
	}
}

func buildProfile(reservations int) *Tree {
	p := NewTree(256, 0)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < reservations; i++ {
		w := 1 + r.Intn(64)
		d := int64(1 + r.Intn(5000))
		at := p.EarliestFit(w, d, int64(r.Intn(50000)))
		p.Reserve(w, at, at+d)
	}
	return p
}

// buildReferenceProfile mirrors buildProfile on the oracle so both
// benches query the identical step function.
func buildReferenceProfile(reservations int) *Reference {
	p := NewReference(256, 0)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < reservations; i++ {
		w := 1 + r.Intn(64)
		d := int64(1 + r.Intn(5000))
		at := p.EarliestFit(w, d, int64(r.Intn(50000)))
		p.Reserve(w, at, at+d)
	}
	return p
}

func name(k string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return k + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return k + "=" + string(buf[i:])
}
