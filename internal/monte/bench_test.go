package monte

import (
	"runtime"
	"testing"
)

// benchSimulate sweeps the engine over trial counts and worker counts,
// the trials × workers grid that BENCH_risk.json recorded over the E6
// ASIC model until it was frozen.
func benchSimulate(b *testing.B, trials, workers int) {
	b.Helper()
	acts := branchy()
	cfg := Config{Trials: trials, Seed: 7, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(acts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateSerial_1k(b *testing.B)   { benchSimulate(b, 1000, 1) }
func BenchmarkSimulateSerial_10k(b *testing.B)  { benchSimulate(b, 10000, 1) }
func BenchmarkSimulateSerial_100k(b *testing.B) { benchSimulate(b, 100000, 1) }

func BenchmarkSimulateParallel_1k(b *testing.B)   { benchSimulate(b, 1000, 0) }
func BenchmarkSimulateParallel_10k(b *testing.B)  { benchSimulate(b, 10000, 0) }
func BenchmarkSimulateParallel_100k(b *testing.B) { benchSimulate(b, 100000, 0) }

// BenchmarkSimulateWorkerSweep reports parallel scaling at 100k trials
// across worker counts up to the machine's core count.
func BenchmarkSimulateWorkerSweep(b *testing.B) {
	for w := 1; w <= runtime.GOMAXPROCS(0); w *= 2 {
		b.Run(workerLabel(w), func(b *testing.B) { benchSimulate(b, 100000, w) })
	}
}

func workerLabel(w int) string {
	const digits = "0123456789"
	if w < 10 {
		return "workers=" + digits[w:w+1]
	}
	return "workers=" + digits[w/10:w/10+1] + digits[w%10:w%10+1]
}
