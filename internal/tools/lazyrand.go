package tools

import "math/rand"

// lazySource is the rand.Source that rand.NewSource(seed) would be,
// without seeding it. Seeding math/rand's additive lagged-Fibonacci
// generator fills its 607-word register from 1,841 steps of the Lehmer
// generator x' = 48271·x mod (2³¹−1) XORed with the rngCooked table:
// about 15 µs and 5 KB, for the handful of draws one tool run makes.
//
// The first draws only read register words that seeding wrote and no
// draw has yet overwritten: draw k (0-based) is
// vec[333−k] + vec[606−k]. lazySource computes those words directly,
// jumping the Lehmer generator to the steps each word uses, for the
// first lazyDraws draws; a later draw falls back to a real math/rand
// source advanced past the draws already made. The Go 1 compatibility
// promise freezes math/rand's seeded streams, so every draw equals
// rand.NewSource(seed)'s (TestLazySourceMatchesMathRand).
type lazySource struct {
	seed int64         // as given to Seed, for the fallback
	x    uint64        // the Lehmer generator's starting value
	n    int           // draws made so far, while n <= lazyDraws
	src  rand.Source64 // fallback once the window is used up
}

const (
	lazyDraws = 4 // one SimTool.Run: runtime, failure, goal, quality
	lcgMul    = 48271
	lcgMod    = 1<<31 - 1
)

// cookedFeed[k] and cookedTap[k] are math/rand's rngCooked[333−k] and
// rngCooked[606−k]: the table words XORed into the register words that
// draw k adds.
var (
	cookedFeed = [lazyDraws]int64{-4633371852008891965, 4287360518296753003, -1072987336855386047, 220828013409515943}
	cookedTap  = [lazyDraws]int64{4152330101494654406, 9103922860780351547, 8382142935188824023, -2171292963361310674}
)

// powFeed[k] and powTap[k] are 48271^s mod (2³¹−1) for the three
// Lehmer steps s that build register words 333−k and 606−k: seeding
// discards 20 steps, then spends three per word, in index order.
var powFeed, powTap = lcgPowers(333), lcgPowers(606)

func lcgPowers(top int) (p [lazyDraws][3]uint64) {
	for k := range p {
		for j := range p[k] {
			p[k][j] = lcgPow(20 + 3*(top-k) + j + 1)
		}
	}
	return p
}

// lcgPow returns 48271^n mod (2³¹−1).
func lcgPow(n int) uint64 {
	r, b := uint64(1), uint64(lcgMul)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % lcgMod
		}
		b = b * b % lcgMod
	}
	return r
}

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source, reducing seed as math/rand does.
func (s *lazySource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	*s = lazySource{seed: seed, x: uint64(x)}
}

// word is register word i of the seeded generator, given its three
// Lehmer steps' powers and its rngCooked entry.
func (s *lazySource) word(pow *[3]uint64, cooked int64) int64 {
	a := int64(s.x * pow[0] % lcgMod)
	b := int64(s.x * pow[1] % lcgMod)
	c := int64(s.x * pow[2] % lcgMod)
	return a<<40 ^ b<<20 ^ c ^ cooked
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	if k := s.n; k < lazyDraws {
		s.n++
		return uint64(s.word(&powFeed[k], cookedFeed[k]) + s.word(&powTap[k], cookedTap[k]))
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < s.n; i++ {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
