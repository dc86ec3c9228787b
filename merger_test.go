package heavyhitters_test

import (
	"bytes"
	"math"
	"testing"

	hh "repro"
)

// mergeUniverse bounds the fuzzed keys, so every key's bounds can be
// compared exhaustively.
const mergeUniverse = 24

// buildMergeInputs decodes raw into a mix of mergeable summaries — unit,
// weighted, windowed, decoded, concurrent (plain and sharded) and
// FREQUENT — each record being kind, capacity, length, then length key
// bytes. Enumerations that tie-break through Go map order (FREQUENTR,
// LOSSYCOUNTING) are left out: two reads of such an input may order
// equal counts differently, so no two merges of it need agree.
func buildMergeInputs(t *testing.T, raw []byte) []hh.Summary[uint64] {
	t.Helper()
	var out []hh.Summary[uint64]
	for len(raw) >= 3 && len(out) < 6 {
		kind, c, n := raw[0]%7, int(raw[1]%12)+1, int(raw[2]%40)
		raw = raw[3:]
		n = min(n, len(raw))
		keys := raw[:n]
		raw = raw[n:]
		var s hh.Summary[uint64]
		switch kind {
		case 0:
			s = hh.New[uint64](hh.WithCapacity(c))
		case 1:
			s = hh.New[uint64](hh.WithCapacity(c), hh.WithWeighted())
		case 2:
			s = hh.New[uint64](hh.WithCapacity(c), hh.WithWindow(uint64(4*c+8)))
		case 3:
			s = hh.New[uint64](hh.WithCapacity(c), hh.WithConcurrent())
		case 4:
			s = hh.New[uint64](hh.WithCapacity(c), hh.WithShards(2), hh.WithConcurrent())
		case 5:
			s = hh.New[uint64](hh.WithCapacity(c), hh.WithAlgorithm(hh.AlgoFrequent))
		case 6:
			s = hh.New[uint64](hh.WithCapacity(c)) // encoded and decoded below
		}
		for _, b := range keys {
			x := uint64(b) % mergeUniverse
			if kind == 1 {
				s.UpdateWeighted(x, float64(b%7+1)/3)
			} else {
				s.Update(x)
			}
		}
		if kind == 6 {
			var buf bytes.Buffer
			if err := s.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := hh.Decode[uint64](&buf)
			if err != nil {
				t.Fatal(err)
			}
			s = d
		}
		out = append(out, s)
	}
	return out
}

// requireSameSummary compares every observable of two merge results
// bit for bit: N, Len, Guarantee, the full Top order with counts and
// errors, and EstimateBounds of every key in the universe plus one
// never seen.
func requireSameSummary(t *testing.T, what string, got, want hh.Summary[uint64]) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.N(), want.N()) || got.Len() != want.Len() || got.Capacity() != want.Capacity() {
		t.Fatalf("%s: N/Len/Capacity = %v/%d/%d, want %v/%d/%d", what,
			got.N(), got.Len(), got.Capacity(), want.N(), want.Len(), want.Capacity())
	}
	gg, gok := got.Guarantee()
	wg, wok := want.Guarantee()
	if gok != wok || gg != wg {
		t.Fatalf("%s: Guarantee = %+v/%v, want %+v/%v", what, gg, gok, wg, wok)
	}
	gt, wt := got.Top(want.Len()), want.Top(want.Len())
	for i := range wt {
		if gt[i].Item != wt[i].Item || !same(gt[i].Count, wt[i].Count) || !same(gt[i].Err, wt[i].Err) {
			t.Fatalf("%s: Top[%d] = %+v, want %+v", what, i, gt[i], wt[i])
		}
	}
	for x := uint64(0); x <= mergeUniverse; x++ {
		glo, ghi := got.EstimateBounds(x)
		wlo, whi := want.EstimateBounds(x)
		if !same(glo, wlo) || !same(ghi, whi) {
			t.Fatalf("%s: EstimateBounds(%d) = [%v, %v], want [%v, %v]", what, x, glo, ghi, wlo, whi)
		}
	}
}

// FuzzMergerSplit pins the incremental merge to the flat one: adding
// inputs[:k] to a Merger and then merging inputs[k:] must equal
// MergeSummaries over all inputs, for every input mix and split point.
// Merge must not consume the Merger (a second call returns the same
// summary), and a rejected sketch input must leave it unchanged.
func FuzzMergerSplit(f *testing.F) {
	f.Add([]byte{0, 3, 9, 1, 2, 3, 4, 5, 1, 1, 2, 9}, uint8(1), uint8(4))
	f.Add([]byte{1, 4, 6, 5, 6, 7, 5, 5, 8, 2, 2, 7, 9, 9, 9, 1, 2, 3, 4}, uint8(2), uint8(6))
	f.Add([]byte{3, 2, 8, 1, 1, 1, 2, 3, 4, 5, 6, 4, 3, 8, 9, 9, 8, 7, 6, 5, 4, 3}, uint8(1), uint8(3))
	f.Add([]byte{5, 3, 7, 1, 2, 3, 1, 2, 3, 4, 6, 2, 5, 10, 11, 10, 12, 13, 0, 5, 4, 1}, uint8(0), uint8(5))
	f.Add([]byte{2, 2, 12, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1, 1, 6, 3, 4, 2, 2, 3}, uint8(2), uint8(2))
	f.Add([]byte{6, 5, 10, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 0, 6, 6, 1, 2, 3, 4, 5, 6}, uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, split, mRaw uint8) {
		m := int(mRaw)%16 + 1
		inputs := buildMergeInputs(t, raw)
		if len(inputs) == 0 {
			return
		}
		k := int(split) % (len(inputs) + 1)
		want, err := hh.MergeSummaries(m, inputs...)
		if err != nil {
			t.Fatal(err)
		}
		mg := hh.NewMerger[uint64](m)
		for _, in := range inputs[:k] {
			if err := mg.Add(in); err != nil {
				t.Fatal(err)
			}
		}
		got, err := mg.Merge(inputs[k:]...)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSummary(t, "split merge", got, want)
		again, err := mg.Merge(inputs[k:]...)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSummary(t, "second Merge", again, want)
		if err := mg.Add(hh.New[uint64](hh.WithAlgorithm(hh.AlgoCountMin))); err == nil {
			t.Fatal("Merger accepted a sketch-backed input")
		}
		after, err := mg.Merge(inputs[k:]...)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSummary(t, "Merge after a rejected Add", after, want)
	})
}

func TestMergerEmpty(t *testing.T) {
	if _, err := hh.NewMerger[uint64](4).Merge(); err == nil {
		t.Fatal("Merge of an empty Merger succeeded")
	}
	if _, err := hh.MergeSummaries[uint64](4); err == nil {
		t.Fatal("MergeSummaries of nothing succeeded")
	}
	if _, err := hh.MergeSummaries(0, hh.New[uint64]()); err == nil {
		t.Fatal("MergeSummaries accepted capacity 0")
	}
}
