package core

import (
	"slices"
	"testing"
	"testing/quick"
)

func mustStore(t testing.TB, l Layout, cap int) *Store {
	t.Helper()
	s, err := NewStore(l, cap)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreValidation(t *testing.T) {
	l := mustLayout(t, 10, 1)
	if _, err := NewStore(l, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestStorePlaceEvictRoundTrip(t *testing.T) {
	s := mustStore(t, mustLayout(t, 10, 1), 100)
	p, err := s.Place(1, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Resident(1) || s.ResidentCount() != 1 {
		t.Fatal("object not resident after Place")
	}
	got, ok := s.Placement(1)
	if !ok || got != p {
		t.Fatal("Placement lookup mismatch")
	}
	free := s.FreeFragments()
	if want := 10*100 - 60; free != want {
		t.Fatalf("free fragments = %d, want %d", free, want)
	}
	if err := s.Evict(1); err != nil {
		t.Fatal(err)
	}
	if s.Resident(1) || s.FreeFragments() != 1000 {
		t.Fatal("eviction did not free space")
	}
	if err := s.Evict(1); err == nil {
		t.Fatal("double evict succeeded")
	}
}

func TestStoreRejectsDuplicate(t *testing.T) {
	s := mustStore(t, mustLayout(t, 10, 1), 100)
	if _, err := s.Place(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(1, 2, 5); err == nil {
		t.Fatal("duplicate placement accepted")
	}
	if _, err := s.PlaceAt(1, 0, 2, 5); err == nil {
		t.Fatal("duplicate PlaceAt accepted")
	}
}

func TestStoreCapacityEnforced(t *testing.T) {
	s := mustStore(t, mustLayout(t, 4, 1), 10)
	// Farm capacity = 40 fragments.  Place a 36-fragment object
	// (9 subobjects × M=4, perfectly balanced: 9 per disk).
	if _, err := s.Place(1, 4, 9); err != nil {
		t.Fatal(err)
	}
	// 4 fragments free (1 per disk); a 2-subobject M=4 object needs 2
	// on some disks.
	if _, err := s.Place(2, 4, 2); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
	// A 1-subobject M=4 object fits exactly.
	if _, err := s.Place(3, 4, 1); err != nil {
		t.Fatalf("exact-fit placement rejected: %v", err)
	}
	if s.FreeFragments() != 0 {
		t.Fatalf("free = %d, want 0", s.FreeFragments())
	}
}

// TestStoreTable3ExactFit reproduces the §4 configuration at reduced
// scale proportions: D=1000, k=5, M=5, capacity 3000 cylinders, and
// 200 objects of 3000 subobjects exactly fill the farm.
func TestStoreTable3ExactFit(t *testing.T) {
	s := mustStore(t, mustLayout(t, 1000, 5), 3000)
	for id := 0; id < 200; id++ {
		if _, err := s.Place(id, 5, 3000); err != nil {
			t.Fatalf("object %d did not fit: %v", id, err)
		}
	}
	if s.FreeFragments() != 0 {
		t.Fatalf("farm not exactly full: %d fragments free", s.FreeFragments())
	}
	if _, err := s.Place(200, 5, 3000); err == nil {
		t.Fatal("201st object accepted into a full farm")
	}
	// Evict one and the next fits again.
	if err := s.Evict(17); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(200, 5, 3000); err != nil {
		t.Fatalf("replacement placement failed: %v", err)
	}
}

func TestStoreResidentIDsSorted(t *testing.T) {
	s := mustStore(t, mustLayout(t, 10, 1), 1000)
	for _, id := range []int{5, 1, 9, 3} {
		if _, err := s.Place(id, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ResidentIDs()
	want := []int{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ResidentIDs = %v, want %v", got, want)
		}
	}
}

// Property: used counters never go negative and free space is
// conserved across arbitrary place/evict sequences.
func TestStoreConservation(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		s, err := NewStore(Layout{D: 8, K: 3}, 50)
		if err != nil {
			return false
		}
		placed := map[int]bool{}
		for _, op := range ops {
			id := int(op % 16)
			if placed[id] {
				if s.Evict(id) != nil {
					return false
				}
				placed[id] = false
			} else {
				if _, err := s.Place(id, int(op%3)+1, int(op%7)+1); err == nil {
					placed[id] = true
				}
			}
			total := 0
			for d := 0; d < 8; d++ {
				u := s.Used(d)
				if u < 0 || u > 50 {
					return false
				}
				total += 50 - u
			}
			if total != s.FreeFragments() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVDRStoreValidation(t *testing.T) {
	if _, err := NewVDRStore(10, 3, 100); err == nil {
		t.Error("non-divisible D/M accepted")
	}
	if _, err := NewVDRStore(10, 5, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestVDRStoreReplicaLifecycle(t *testing.T) {
	v, err := NewVDRStore(20, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v.Clusters() != 4 {
		t.Fatalf("clusters = %d, want 4", v.Clusters())
	}
	if err := v.PlaceReplica(7, 1, 60); err != nil {
		t.Fatal(err)
	}
	if !v.Resident(7) || !v.HasReplicaOn(7, 1) {
		t.Fatal("replica not recorded")
	}
	if err := v.PlaceReplica(7, 1, 10); err == nil {
		t.Fatal("duplicate replica on same cluster accepted")
	}
	if err := v.PlaceReplica(7, 2, 60); err != nil {
		t.Fatal(err)
	}
	if got := len(v.Replicas(7)); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
	if v.UniqueResident() != 1 {
		t.Fatal("unique resident count wrong")
	}
	if err := v.EvictReplica(7, 1, 60); err != nil {
		t.Fatal(err)
	}
	if v.HasReplicaOn(7, 1) || !v.Resident(7) {
		t.Fatal("wrong replica evicted")
	}
	if err := v.EvictReplica(7, 3, 60); err == nil {
		t.Fatal("evicting non-existent replica succeeded")
	}
	if err := v.EvictReplica(7, 2, 60); err != nil {
		t.Fatal(err)
	}
	if v.Resident(7) {
		t.Fatal("object still resident after last replica evicted")
	}
}

func TestVDRStoreCapacity(t *testing.T) {
	v, err := NewVDRStore(10, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(1, 0, 80); err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(2, 0, 30); err == nil {
		t.Fatal("over-capacity replica accepted")
	}
	if err := v.PlaceReplica(2, 0, 20); err != nil {
		t.Fatalf("exact-fit replica rejected: %v", err)
	}
	if v.ClusterFree(0) != 0 {
		t.Fatalf("cluster free = %d, want 0", v.ClusterFree(0))
	}
}

func TestVDRStoreFindFreeCluster(t *testing.T) {
	v, err := NewVDRStore(15, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(2, 1, 50); err != nil {
		t.Fatal(err)
	}
	c, ok := v.FindFreeCluster(3, 80)
	if !ok || c != 2 {
		t.Fatalf("FindFreeCluster = %d,%v, want cluster 2", c, ok)
	}
	// Prefers emptiest: for a 40-cylinder object, cluster 2 (100 free)
	// beats cluster 1 (50 free).
	c, ok = v.FindFreeCluster(3, 40)
	if !ok || c != 2 {
		t.Fatalf("FindFreeCluster(40) = %d,%v, want cluster 2", c, ok)
	}
	// Excludes clusters already holding a replica of the object.
	c, ok = v.FindFreeCluster(2, 40)
	if !ok || c != 2 {
		t.Fatalf("FindFreeCluster must skip existing replica cluster: got %d,%v", c, ok)
	}
	// Nothing fits a 101-cylinder object.
	if _, ok := v.FindFreeCluster(9, 101); ok {
		t.Fatal("impossible fit reported")
	}
}

func TestVDRClusterDisks(t *testing.T) {
	v, err := NewVDRStore(15, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := v.ClusterDisks(2)
	want := []int{10, 11, 12, 13, 14}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClusterDisks(2) = %v, want %v", got, want)
		}
	}
}

// TestVDRTable3OneObjectPerCluster reproduces §4.1: "at most one
// object can be assigned to a cluster (the storage capacity of the
// cluster is exhausted by one object)".
func TestVDRTable3OneObjectPerCluster(t *testing.T) {
	v, err := NewVDRStore(1000, 5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 200; id++ {
		c, ok := v.FindFreeCluster(id, 3000)
		if !ok {
			t.Fatalf("no cluster for object %d", id)
		}
		if err := v.PlaceReplica(id, c, 3000); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := v.FindFreeCluster(200, 3000); ok {
		t.Fatal("201st object found space in a full farm")
	}
	if v.UniqueResident() != 200 {
		t.Fatalf("unique resident = %d, want 200", v.UniqueResident())
	}
}

func BenchmarkStorePlaceEvict(b *testing.B) {
	s := mustStore(b, mustLayout(b, 1000, 5), 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Place(i, 5, 3000); err != nil {
			// Farm full: evict the oldest id still resident.
			_ = s.Evict(i - 200)
			if _, err := s.Place(i, 5, 3000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStorePreload is the Store placement layer at the hotset
// geometry: a fresh store of 100,000 disks (120,000 fragments each)
// preloaded with 80,000 objects of 30 subobjects at K = M = 5.
func BenchmarkStorePreload(b *testing.B) {
	l := mustLayout(b, 100000, 5)
	ids := make([]int, 80000)
	for i := range ids {
		ids[i] = i
	}
	degree := func(int) int { return 5 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := mustStore(b, l, 120000)
		if got := s.Preload(ids, degree, 30, len(ids)); got != len(ids) {
			b.Fatalf("placed %d of %d objects", got, len(ids))
		}
	}
}

// preloadCase decodes a fuzz input into a store geometry and an
// ordered id list.  mode packs the variants: bit 0 mixes degrees,
// bit 1 gives id 13 an invalid degree, and bits 4–5 count the list's
// trailing ids placed beforehand (so Preload starts on a store that
// is not empty and meets resident ids).
type preloadCase struct {
	d, k, m, capacity, n int
	ids                  []int
	degree               func(id int) int
	before               []int
}

// Each uint16 field maps to 1 + x mod a bound, so a seed stores each
// value minus one.
func decodePreloadCase(d, k, m, capacity, n uint16, mode uint8, list []byte) preloadCase {
	c := preloadCase{d: 1 + int(d)%1024}
	c.k = 1 + int(k)%c.d
	c.m = 1 + int(m)%c.d
	c.capacity = 1 + int(capacity)%4096
	c.n = 1 + int(n)%4096
	c.degree = func(id int) int {
		switch {
		case mode&2 != 0 && id == 13:
			return c.d + 1
		case mode&1 != 0:
			return 1 + (id*7)%c.m
		}
		return c.m
	}
	for _, b := range list {
		c.ids = append(c.ids, int(b))
	}
	before := int(mode>>4) % 4
	if before > len(c.ids) {
		before = len(c.ids)
	}
	c.before = c.ids[len(c.ids)-before:]
	return c
}

// checkPreload builds the case's store twice, once through Preload and
// once through the sequential Place loop Preload replaces, and fails
// unless every piece of state agrees.
func checkPreload(t *testing.T, c preloadCase) {
	l := Layout{D: c.d, K: c.k}
	bulk, seq := mustStore(t, l, c.capacity), mustStore(t, l, c.capacity)
	for _, s := range []*Store{bulk, seq} {
		for _, id := range c.before {
			_, _ = s.Place(id, c.degree(id), c.n)
		}
	}
	got := bulk.Preload(c.ids, c.degree, c.n, 256)
	want := 0
	for _, id := range c.ids {
		if _, err := seq.Place(id, c.degree(id), c.n); err != nil {
			break
		}
		want++
	}
	if got != want {
		t.Fatalf("Preload placed %d objects, the Place loop %d", got, want)
	}
	if bulk.free != seq.free || bulk.count != seq.count || bulk.cursor != seq.cursor || bulk.ids != seq.ids {
		t.Fatalf("free/count/cursor/ids: Preload %d/%d/%d/%d, Place loop %d/%d/%d/%d",
			bulk.free, bulk.count, bulk.cursor, bulk.ids, seq.free, seq.count, seq.cursor, seq.ids)
	}
	for d := 0; d < c.d; d++ {
		if bulk.used[d] != seq.used[d] {
			t.Fatalf("disk %d: Preload used %d, Place loop %d", d, bulk.used[d], seq.used[d])
		}
	}
	record := func(s *Store, id int) placedRec {
		if id < len(s.placed) {
			return s.placed[id]
		}
		return placedRec{}
	}
	for id := 0; id < 256; id++ {
		if bulk.Resident(id) != seq.Resident(id) || record(bulk, id) != record(seq, id) {
			t.Fatalf("object %d: Preload resident=%v %+v, Place loop resident=%v %+v",
				id, bulk.Resident(id), record(bulk, id), seq.Resident(id), record(seq, id))
		}
	}
}

// preloadSeeds are the differential test's cases and the fuzz
// target's seed corpus: the geometries of the Store tests above plus
// the preload regimes the schedulers produce.
var preloadSeeds = []struct {
	name                 string
	d, k, m, capacity, n uint16
	mode                 uint8
	list                 []byte
}{
	// Table 3 proportions: 200 objects exactly fill the farm, the
	// 201st does not fit.
	{"table3-exact-fit", 999, 4, 4, 2999, 2999, 0, seqIDs(0, 201)},
	// The quick farm with stride 1 (k < M): ramps keep the farm from
	// packing exactly, so the bulk prefix ends early.  In the k1-tail
	// and k7-tail farms the sequential tail then places more objects
	// off the cursor.
	{"k1-exact-fit", 49, 0, 4, 59, 29, 0, seqIDs(0, 40)},
	{"k1-tail", 9, 0, 4, 59, 4, 0, seqIDs(0, 40)},
	{"k7-tail", 9, 6, 1, 59, 4, 0, seqIDs(0, 80)},
	{"k3-overfull", 7, 2, 3, 49, 6, 0, seqIDs(0, 60)},
	// TestStoreCapacityEnforced's farm, over-filled.
	{"capacity", 3, 0, 3, 9, 8, 0, []byte{1, 2, 3, 4}},
	// Mixed degrees (Config.Degrees) and an invalid degree.
	{"mixed", 99, 4, 7, 199, 29, 1, seqIDs(0, 120)},
	{"invalid-degree", 99, 4, 4, 199, 9, 2, seqIDs(0, 30)},
	// PreloadObjects-style Zipf-rank shards, one with a duplicate.
	{"shard", 49, 4, 4, 59, 29, 0, []byte{1, 5, 9, 13, 17, 21, 25, 29}},
	{"shard-duplicate", 49, 4, 4, 599, 29, 0, []byte{0, 4, 8, 4, 12}},
	// Ids placed beforehand: the store is not empty and the list
	// meets a resident id.
	{"placed-before", 29, 2, 4, 99, 9, 0x21, []byte{3, 1, 4, 15, 9, 2, 6, 7}},
	{"stride-d", 9, 9, 2, 39, 5, 0x10, seqIDs(0, 30)},
}

func seqIDs(from, to int) []byte {
	var b []byte
	for id := from; id < to; id++ {
		b = append(b, byte(id))
	}
	return b
}

// TestStorePreloadMatchesPlace is the differential test of Preload
// against the sequential Place loop on the seed corpus.
func TestStorePreloadMatchesPlace(t *testing.T) {
	for _, sc := range preloadSeeds {
		t.Run(sc.name, func(t *testing.T) {
			checkPreload(t, decodePreloadCase(sc.d, sc.k, sc.m, sc.capacity, sc.n, sc.mode, sc.list))
		})
	}
}

func FuzzStorePreload(f *testing.F) {
	for _, sc := range preloadSeeds {
		f.Add(sc.d, sc.k, sc.m, sc.capacity, sc.n, sc.mode, sc.list)
	}
	f.Fuzz(func(t *testing.T, d, k, m, capacity, n uint16, mode uint8, list []byte) {
		checkPreload(t, decodePreloadCase(d, k, m, capacity, n, mode, list))
	})
}

// TestVDRStorePreloadMatchesFindFreeCluster checks VDRStore.Preload
// against the loop it replaces, FindFreeCluster then PlaceReplica per
// entry, on random farms: replicas placed beforehand (so clusters
// start unequal), repeated ids (extra copies), and entries that fit
// nowhere.
func TestVDRStorePreloadMatchesFindFreeCluster(t *testing.T) {
	err := quick.Check(func(clusters, capacity, n uint8, before, list []uint8) bool {
		r, m := 1+int(clusters)%12, 3
		cp, sub := 1+int(capacity)%40, 1+int(n)%10
		bulk, _ := NewVDRStore(r*m, m, cp)
		seq, _ := NewVDRStore(r*m, m, cp)
		for i, b := range before {
			for _, v := range []*VDRStore{bulk, seq} {
				_ = v.PlaceReplica(100+i, int(b)%r, 1+int(b)%7)
			}
		}
		ids := make([]int, len(list))
		for i, b := range list {
			ids[i] = int(b) % 16
		}
		got, want := bulk.Preload(ids, sub), 0
		for _, id := range ids {
			if c, ok := seq.FindFreeCluster(id, sub); ok {
				if seq.PlaceReplica(id, c, sub) != nil {
					return false
				}
				want++
			}
		}
		if got != want {
			return false
		}
		for c := 0; c < r; c++ {
			if bulk.ClusterFree(c) != seq.ClusterFree(c) || !slices.Equal(bulk.ObjectsOn(c), seq.ObjectsOn(c)) {
				return false
			}
		}
		return bulk.UniqueResident() == seq.UniqueResident()
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}
