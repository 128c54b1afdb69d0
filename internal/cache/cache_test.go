package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// recListener records events for assertions.
type recListener struct {
	clock    uint64
	accesses []accessEv
	snoops   []snoopEv
	evicts   []evictEv
	acks     []uint64
}

type accessEv struct {
	line  uint64
	write bool
}
type snoopEv struct {
	line      uint64
	exclusive bool
}
type evictEv struct {
	line  uint64
	dirty bool
}

func (l *recListener) OnLocalAccess(line uint64, write bool) {
	l.accesses = append(l.accesses, accessEv{line, write})
}
func (l *recListener) OnSnoop(line uint64, exclusive bool) uint64 {
	l.snoops = append(l.snoops, snoopEv{line, exclusive})
	return l.clock
}
func (l *recListener) OnEvict(line uint64, dirty bool) {
	l.evicts = append(l.evicts, evictEv{line, dirty})
}
func (l *recListener) OnBusAck(max uint64) { l.acks = append(l.acks, max) }

func twoCaches(t *testing.T) (*Bus, *Cache, *Cache, *recListener, *recListener) {
	t.Helper()
	m := mem.New(1 << 20)
	bus := NewBus(m)
	l0, l1 := &recListener{}, &recListener{}
	c0 := New(DefaultConfig(), bus, l0)
	c1 := New(DefaultConfig(), bus, l1)
	return bus, c0, c1, l0, l1
}

func TestReadMissFromMemoryExclusive(t *testing.T) {
	bus, c0, _, _, _ := twoCaches(t)
	bus.Memory().Store(128, 42)
	v, cost := c0.Load(128)
	if v != 42 {
		t.Errorf("loaded %d, want 42", v)
	}
	if cost != CostMissMem {
		t.Errorf("cost = %v, want CostMissMem", cost)
	}
	if s := c0.StateOf(128); s != Exclusive {
		t.Errorf("state = %v, want E", s)
	}
	// Second load hits.
	if _, cost := c0.Load(128); cost != CostHit {
		t.Errorf("second load cost = %v, want hit", cost)
	}
}

func TestSharedOnSecondReader(t *testing.T) {
	bus, c0, c1, _, _ := twoCaches(t)
	bus.Memory().Store(0, 9)
	c0.Load(0)
	v, _ := c1.Load(0)
	if v != 9 {
		t.Errorf("c1 loaded %d, want 9", v)
	}
	if c0.StateOf(0) != Shared || c1.StateOf(0) != Shared {
		t.Errorf("states = %v/%v, want S/S", c0.StateOf(0), c1.StateOf(0))
	}
}

func TestWriteInvalidatesPeer(t *testing.T) {
	_, c0, c1, _, _ := twoCaches(t)
	c0.Load(64)
	c1.Load(64)
	cost := c1.Store(64, 7)
	if cost != CostUpgrade {
		t.Errorf("S->M cost = %v, want CostUpgrade", cost)
	}
	if c0.StateOf(64) != Invalid {
		t.Errorf("peer state = %v, want I", c0.StateOf(64))
	}
	if c1.StateOf(64) != Modified {
		t.Errorf("writer state = %v, want M", c1.StateOf(64))
	}
	// c0 reloading sees the new value via cache-to-cache transfer.
	v, cost := c0.Load(64)
	if v != 7 {
		t.Errorf("reload = %d, want 7", v)
	}
	if cost != CostMissC2C {
		t.Errorf("reload cost = %v, want CostMissC2C", cost)
	}
	// Snooped M line downgraded to S and memory updated.
	if c1.StateOf(64) != Shared {
		t.Errorf("downgraded state = %v, want S", c1.StateOf(64))
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	bus, c0, _, _, _ := twoCaches(t)
	c0.Load(256) // E
	before := bus.Stats().BusUpgr
	if cost := c0.Store(256, 1); cost != CostHit {
		t.Errorf("E->M store cost = %v, want CostHit", cost)
	}
	if bus.Stats().BusUpgr != before {
		t.Error("E->M upgrade generated bus traffic")
	}
	if c0.StateOf(256) != Modified {
		t.Errorf("state = %v, want M", c0.StateOf(256))
	}
}

func TestWriteMissInvalidatesModifiedPeer(t *testing.T) {
	bus, c0, c1, _, _ := twoCaches(t)
	c0.Store(512, 11) // c0 M
	_, cost := c1.RMW(512, func(old uint64) uint64 { return old + 1 })
	if cost != CostMissC2C {
		t.Errorf("RMW miss cost = %v, want CostMissC2C (peer had M)", cost)
	}
	if c0.StateOf(512) != Invalid {
		t.Errorf("peer state = %v, want I", c0.StateOf(512))
	}
	v, _ := c1.Load(512)
	if v != 12 {
		t.Errorf("value = %d, want 12", v)
	}
	// Memory also received the writeback from the snooped M line.
	if got := bus.Memory().Load(512); got != 11 {
		t.Errorf("memory = %d, want 11 (writeback of pre-RMW data)", got)
	}
}

func TestRMWAtomicAndListenerSeesReadWrite(t *testing.T) {
	_, c0, _, l0, _ := twoCaches(t)
	old, _ := c0.RMW(64, func(o uint64) uint64 { return o + 5 })
	if old != 0 {
		t.Errorf("old = %d, want 0", old)
	}
	if len(l0.accesses) != 2 || l0.accesses[0].write || !l0.accesses[1].write {
		t.Errorf("listener accesses = %+v, want read then write", l0.accesses)
	}
	if l0.accesses[0].line != LineOf(64) {
		t.Errorf("access line = %d, want %d", l0.accesses[0].line, LineOf(64))
	}
}

func TestSnoopAckCarriesClock(t *testing.T) {
	_, c0, c1, _, l1 := twoCaches(t)
	l1.clock = 77
	c0.Load(0) // snoops c1, which acks 77
	if len(l1.snoops) != 1 || l1.snoops[0].exclusive {
		t.Fatalf("snoops = %+v, want one non-exclusive", l1.snoops)
	}
	// Requester received the max ack.
	_, _, _, _ = c0, c1, l1, t
	l0acks := c0.listener.(*recListener).acks
	if len(l0acks) != 1 || l0acks[0] != 77 {
		t.Errorf("requester acks = %v, want [77]", l0acks)
	}
}

func TestEverySnooperAcksEvenWithoutLine(t *testing.T) {
	// Clock propagation must not depend on residency: c1 never touched
	// the line but still sees the snoop.
	_, c0, _, _, l1 := twoCaches(t)
	c0.Store(4096, 1)
	if len(l1.snoops) != 1 || !l1.snoops[0].exclusive {
		t.Errorf("snoops = %+v, want one exclusive snoop on non-resident cache", l1.snoops)
	}
}

func TestEvictionWritebackAndNotification(t *testing.T) {
	m := mem.New(1 << 22)
	bus := NewBus(m)
	l := &recListener{}
	// Tiny cache: 2 sets x 1 way; lines 0 and 2 collide in set 0.
	c := New(Config{Sets: 2, Ways: 1}, bus, l)
	c.Store(0, 99)       // line 0 M in set 0
	c.Load(2 * LineSize) // line 2 -> set 0, evicts line 0
	if len(l.evicts) != 1 || !l.evicts[0].dirty || l.evicts[0].line != 0 {
		t.Fatalf("evicts = %+v, want one dirty eviction of line 0", l.evicts)
	}
	if got := m.Load(0); got != 99 {
		t.Errorf("memory after writeback = %d, want 99", got)
	}
	// Reload sees the written value.
	v, _ := c.Load(0)
	if v != 99 {
		t.Errorf("reload = %d, want 99", v)
	}
}

func TestCleanEvictionNotDirty(t *testing.T) {
	bus := NewBus(mem.New(1 << 22))
	l := &recListener{}
	c := New(Config{Sets: 2, Ways: 1}, bus, l)
	c.Load(0)
	c.Load(2 * LineSize)
	if len(l.evicts) != 1 || l.evicts[0].dirty {
		t.Fatalf("evicts = %+v, want one clean eviction", l.evicts)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	bus := NewBus(mem.New(1 << 22))
	l := &recListener{}
	c := New(Config{Sets: 1, Ways: 2}, bus, l)
	c.Load(0 * LineSize)
	c.Load(1 * LineSize)
	c.Load(0 * LineSize) // touch line 0; line 1 is now LRU
	c.Load(2 * LineSize) // evicts line 1
	if len(l.evicts) != 1 || l.evicts[0].line != 1 {
		t.Fatalf("evicts = %+v, want eviction of line 1", l.evicts)
	}
	if c.StateOf(0) == Invalid {
		t.Error("MRU line was evicted")
	}
}

func TestFlushAll(t *testing.T) {
	bus, c0, c1, _, _ := twoCaches(t)
	c0.Store(0, 5)
	c1.Store(4096, 6)
	bus.FlushAll()
	if bus.Memory().Load(0) != 5 || bus.Memory().Load(4096) != 6 {
		t.Error("FlushAll did not write back dirty data")
	}
	if c0.StateOf(0) != Invalid || c1.StateOf(4096) != Invalid {
		t.Error("FlushAll left lines valid")
	}
}

func TestStatsCounting(t *testing.T) {
	bus, c0, c1, _, _ := twoCaches(t)
	c0.Load(0)     // miss
	c0.Load(0)     // hit
	c1.Load(0)     // miss (shared)
	c1.Store(0, 1) // upgrade
	s0, s1 := c0.Stats(), c1.Stats()
	if s0.Loads != 2 || s0.Hits != 1 || s0.Misses != 1 {
		t.Errorf("c0 stats = %+v", s0)
	}
	if s1.Upgrades != 1 || s1.Stores != 1 {
		t.Errorf("c1 stats = %+v", s1)
	}
	bs := bus.Stats()
	if bs.BusRd != 2 || bs.BusUpgr != 1 {
		t.Errorf("bus stats = %+v", bs)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bus := NewBus(mem.New(1 << 10))
	for _, cfg := range []Config{{Sets: 0, Ways: 1}, {Sets: 3, Ways: 1}, {Sets: 2, Ways: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, bus, nil)
		}()
	}
}

// TestCoherenceAgainstFlatMemory drives random loads/stores/RMWs from
// four caches and cross-checks every observed value against a flat
// reference memory. Any MESI protocol bug shows up as a value mismatch.
func TestCoherenceAgainstFlatMemory(t *testing.T) {
	const (
		ncores = 4
		nlines = 64
		ops    = 50000
	)
	m := mem.New(nlines * LineSize)
	ref := mem.New(nlines * LineSize)
	bus := NewBus(m)
	caches := make([]*Cache, ncores)
	for i := range caches {
		// Small caches force constant evictions and refills.
		caches[i] = New(Config{Sets: 4, Ways: 2}, bus, nil)
	}
	rng := rand.New(rand.NewSource(12345))
	for i := 0; i < ops; i++ {
		core := rng.Intn(ncores)
		addr := uint64(rng.Intn(nlines*8)) * 8
		switch rng.Intn(3) {
		case 0:
			got, _ := caches[core].Load(addr)
			if want := ref.Load(addr); got != want {
				t.Fatalf("op %d: core %d load [%#x] = %d, want %d", i, core, addr, got, want)
			}
		case 1:
			v := rng.Uint64()
			caches[core].Store(addr, v)
			ref.Store(addr, v)
		case 2:
			delta := uint64(rng.Intn(100))
			old, _ := caches[core].RMW(addr, func(o uint64) uint64 { return o + delta })
			refOld := ref.Load(addr)
			if old != refOld {
				t.Fatalf("op %d: core %d RMW [%#x] old = %d, want %d", i, core, addr, old, refOld)
			}
			ref.Store(addr, refOld+delta)
		}
	}
	bus.FlushAll()
	if !m.Equal(ref) {
		t.Fatal("final memory image diverged from reference")
	}
}

// TestSingleWriterInvariant checks the MESI invariant: at most one cache
// holds a line in M/E, and M/E excludes any other holder.
func TestSingleWriterInvariant(t *testing.T) {
	const ncores = 4
	m := mem.New(64 * LineSize)
	bus := NewBus(m)
	caches := make([]*Cache, ncores)
	for i := range caches {
		caches[i] = New(Config{Sets: 4, Ways: 2}, bus, nil)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		core := rng.Intn(ncores)
		addr := uint64(rng.Intn(64)) * LineSize
		if rng.Intn(2) == 0 {
			caches[core].Load(addr)
		} else {
			caches[core].Store(addr, uint64(i))
		}
		// Check the invariant on the touched line.
		owners, holders := 0, 0
		for _, c := range caches {
			switch c.StateOf(addr) {
			case Modified, Exclusive:
				owners++
				holders++
			case Shared:
				holders++
			}
		}
		if owners > 1 {
			t.Fatalf("op %d: %d exclusive owners of line %#x", i, owners, addr)
		}
		if owners == 1 && holders > 1 {
			t.Fatalf("op %d: exclusive owner coexists with %d holders", i, holders)
		}
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "?"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 || LineOf(130) != 2 {
		t.Error("LineOf arithmetic wrong")
	}
}
