package id

import (
	"math/rand/v2"
	"testing"
)

// Micro-benchmarks for the word-pair hot path. The fixture mixes random
// pairs with long-shared-prefix pairs so CommonPrefixLen exercises both
// words, not just the first XOR.
func benchIDs(n int) []ID {
	rng := rand.New(rand.NewPCG(42, 0))
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = Random(rng)
		if i%4 == 1 {
			prev := ids[i-1]
			ids[i] = prev.WithDigit(Digits-1-rng.IntN(8), byte(rng.IntN(Base)))
		}
	}
	return ids
}

func BenchmarkCommonPrefixLen(b *testing.B) {
	ids := benchIDs(1024)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		x := ids[i%len(ids)]
		y := ids[(i+1)%len(ids)]
		sink += CommonPrefixLen(x, y)
	}
	_ = sink
}

func BenchmarkDigit(b *testing.B) {
	ids := benchIDs(1024)
	b.ReportAllocs()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink += ids[i%len(ids)].Digit(i % Digits)
	}
	_ = sink
}

func BenchmarkWithDigit(b *testing.B) {
	ids := benchIDs(1024)
	b.ReportAllocs()
	var sink byte
	for i := 0; i < b.N; i++ {
		out := ids[i%len(ids)].WithDigit(i%Digits, byte(i%Base))
		sink += out[0]
	}
	_ = sink
}

func BenchmarkCmp(b *testing.B) {
	ids := benchIDs(1024)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Cmp(ids[i%len(ids)], ids[(i+1)%len(ids)])
	}
	_ = sink
}

func BenchmarkCloser(b *testing.B) {
	ids := benchIDs(1024)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		if Closer(ids[i%len(ids)], ids[(i+1)%len(ids)], ids[(i+2)%len(ids)]) {
			sink++
		}
	}
	_ = sink
}
