package coalesce

import (
	"strconv"
	"testing"
)

// group folds keys through the table as the ingest paths do, returning
// the distinct keys in first-occurrence order and their counts.
func group(t *Table, keys []string, hash func(string) uint64, lowBits bool) ([]string, []int) {
	t.Reset(len(keys), lowBits)
	var groups []string
	var counts []int
	for _, k := range keys {
		if g, ok := Find(t, hash(k), k, groups); ok {
			counts[g]++
			continue
		}
		groups = append(groups, k)
		counts = append(counts, 1)
	}
	return groups, counts
}

// checkGroups compares a grouping with a map oracle.
func checkGroups(tb testing.TB, keys, groups []string, counts []int) {
	tb.Helper()
	want := map[string]int{}
	var order []string
	for _, k := range keys {
		if want[k] == 0 {
			order = append(order, k)
		}
		want[k]++
	}
	if len(groups) != len(order) {
		tb.Fatalf("%d groups for %d distinct keys", len(groups), len(order))
	}
	for i, k := range order {
		if groups[i] != k || counts[i] != want[k] {
			tb.Fatalf("group %d = %q×%d, want %q×%d", i, groups[i], counts[i], k, want[k])
		}
	}
}

// TestFindGroups: batches of every shape — repeats, all-distinct, a
// constant hash that collides every key — group exactly like a map, in
// first-occurrence order, across generations of one reused table, and
// from either end of the hash.
func TestFindGroups(t *testing.T) {
	var tab Table
	mixed := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	constant := func(string) uint64 { return 42 }
	for _, n := range []int{0, 1, 7, 100, 5000} {
		var dup, distinct []string
		for i := 0; i < n; i++ {
			dup = append(dup, strconv.Itoa(i%13))
			distinct = append(distinct, strconv.Itoa(i))
		}
		for _, lowBits := range []bool{false, true} {
			for _, keys := range [][]string{dup, distinct, dup} {
				g, c := group(&tab, keys, mixed, lowBits)
				checkGroups(t, keys, g, c)
			}
			if n <= 100 {
				g, c := group(&tab, distinct, constant, lowBits)
				checkGroups(t, distinct, g, c)
			}
		}
	}
	if groups, mean := tab.MeanProbe(); groups == 0 || mean < 1 {
		t.Fatalf("MeanProbe = %d groups, mean %v", groups, mean)
	}
}

// FuzzFind drives the grouping table with arbitrary batches under a
// deliberately weak hash (the byte sum, so distinct keys collide often)
// and checks every grouping against a map oracle — the property all
// three ingest paths that share the table rely on: a colliding hash
// never merges distinct keys, and a repeated key always finds its
// group.
func FuzzFind(f *testing.F) {
	f.Add([]byte("aabbccab"), uint8(2))
	f.Add([]byte("ab\x00ba\x00ab\x00"), uint8(3))
	f.Add([]byte{}, uint8(1))
	weak := func(s string) uint64 {
		var h uint64
		for i := 0; i < len(s); i++ {
			h += uint64(s[i])
		}
		return h
	}
	var tab Table
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		w := int(width%4) + 1
		var keys []string
		for i := 0; i < len(data); i += w {
			keys = append(keys, string(data[i:min(i+w, len(data))]))
		}
		for _, lowBits := range []bool{false, true} {
			g, c := group(&tab, keys, weak, lowBits)
			checkGroups(t, keys, g, c)
		}
	})
}
