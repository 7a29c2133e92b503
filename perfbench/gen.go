package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/stats"
)

// zipfian draws item ranks in [0, n) with YCSB's zipfian generator
// (Gray et al., "Quickly generating billion-record synthetic
// databases"), which unlike math/rand.Zipf accepts θ < 1, and then
// scrambles the rank with FNV-1a so that the hot items are spread over
// the key space (and so over partitions) instead of being its first
// keys — YCSB's ScrambledZipfianGenerator.
type zipfian struct {
	n                 int
	theta, alpha, eta float64
	zetan             float64
	rng               *stats.RNG
}

func newZipfian(n int, theta float64, rng *stats.RNG) *zipfian {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipfian{
		n: n, theta: theta, zetan: zetan, rng: rng,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
	}
}

// rank returns the next unscrambled rank: 0 is the most popular.
func (z *zipfian) rank() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+math.Pow(0.5, z.theta):
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// next returns the next scrambled item.
func (z *zipfian) next() int { return int(fnv64(uint64(z.rank())) % uint64(z.n)) }

func fnv64(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// kvOp is one generated client request.
type kvOp struct {
	put bool
	key int
}

// opStream is one client's seeded request sequence: the same seed and
// client give the same ops, whatever the machine speed.
type opStream struct {
	putFrac float64
	keys    *zipfian
	mix     *stats.RNG
}

func newOpStream(seed uint64, client, keys int, putFrac float64) *opStream {
	base := stats.NewRNG(seed)
	return &opStream{
		putFrac: putFrac,
		keys:    newZipfian(keys, 0.99, base.Stream(uint64(2*client))),
		mix:     base.Stream(uint64(2*client + 1)),
	}
}

func (s *opStream) next() kvOp { return kvOp{put: s.mix.Bool(s.putFrac), key: s.keys.next()} }

// keyName is the key of item i.
func keyName(i int) string { return fmt.Sprintf("user%07d", i) }

// valueSize is the YCSB-style record size the kv workloads write.
const valueSize = 256

// makeValue builds a valueSize-byte value that embeds its key, the
// writer and the writer's sequence number, so a read can prove it got
// its own key's bytes and which write produced them.
func makeValue(key string, writer int, seq uint64) []byte {
	v := make([]byte, 0, valueSize)
	v = append(v, key...)
	v = append(v, '|')
	v = strconv.AppendInt(v, int64(writer), 10)
	v = append(v, '|')
	v = strconv.AppendUint(v, seq, 10)
	v = append(v, '|')
	for i := len(v); i < valueSize; i++ {
		v = append(v, byte('a'+(seq+uint64(i))%26))
	}
	return v
}

// checkValue verifies that v is a value makeValue built for key.
func checkValue(key string, v []byte) error {
	parts := bytes.SplitN(v, []byte{'|'}, 4)
	if len(v) != valueSize || len(parts) != 4 || string(parts[0]) != key {
		return fmt.Errorf("value for %s is not its own (%d bytes, %.40q)", key, len(v), v)
	}
	writer, err1 := strconv.Atoi(string(parts[1]))
	seq, err2 := strconv.ParseUint(string(parts[2]), 10, 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("value for %s has a malformed header %.40q", key, v)
	}
	if want := makeValue(key, writer, seq); !bytes.Equal(v, want) {
		return fmt.Errorf("value for %s has corrupt padding", key)
	}
	return nil
}
