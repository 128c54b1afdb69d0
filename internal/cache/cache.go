// Package cache models the memory hierarchy of the QuickRec prototype:
// per-core set-associative write-back caches kept coherent with a MESI
// protocol over a snooping bus. Caches hold real data, so protocol bugs
// corrupt values and are caught by the test suite rather than hidden by a
// backing flat memory.
//
// The package exposes exactly the observation points the Memory Race
// Recorder needs:
//
//   - every local access (line address + read/write) after it completes;
//   - every remote bus transaction snooped by this cache, which the
//     listener acknowledges with its current Lamport clock — the
//     "timestamp piggybacking on coherence responses" of the paper;
//   - the maximum acknowledged clock delivered back to the requester;
//   - line evictions, which the prototype's recorder treats as a chunk
//     termination condition (its snoop filter would hide later conflicts).
//
// Every cache snoops and acknowledges every bus transaction, whether or
// not it holds the line. This models a broadcast bus and makes clock
// propagation cover dependencies that flow through memory (a line written
// long ago, evicted, then read by another core), which keeps the recorded
// chunk order sound without per-line timestamp metadata.
package cache

import "fmt"

// LineSize is the coherence granularity in bytes.
const LineSize = 64

// WordsPerLine is the number of 64-bit words in a cache line.
const WordsPerLine = LineSize / 8

// LineOf returns the cache-line number containing the byte address.
func LineOf(addr uint64) uint64 { return addr >> 6 }

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Cost classifies the latency of a completed access, consumed by the
// performance model.
type Cost uint8

// Access cost classes.
const (
	// CostHit: line present with sufficient permissions.
	CostHit Cost = iota
	// CostUpgrade: line present Shared, needed exclusive (bus upgrade).
	CostUpgrade
	// CostMissMem: miss filled from memory.
	CostMissMem
	// CostMissC2C: miss filled by a cache-to-cache transfer from a
	// Modified line in a peer cache.
	CostMissC2C
)

// Listener receives the coherence-visible events the recording hardware
// taps. Implementations must be deterministic; they run synchronously on
// the simulated bus.
type Listener interface {
	// OnLocalAccess fires after this core completes a data access to the
	// given line. An atomic read-modify-write fires twice: read, then
	// write.
	OnLocalAccess(line uint64, write bool)
	// OnSnoop fires when a remote core's transaction reaches this cache
	// (whether or not the line is resident). exclusive is true for
	// ownership-acquiring transactions (BusRdX/BusUpgr). The return value
	// is this core's current Lamport clock, piggybacked on the snoop
	// acknowledgement; the listener may terminate its chunk first.
	OnSnoop(line uint64, exclusive bool) (ackClock uint64)
	// OnEvict fires when this cache evicts a line (capacity or conflict).
	OnEvict(line uint64, dirty bool)
	// OnBusAck fires on the requesting core after a bus transaction
	// completes, carrying the maximum clock acknowledged by the snoopers.
	OnBusAck(maxClock uint64)
}

// NopListener ignores all events and acknowledges clock zero. Useful for
// running the machine with recording hardware absent.
type NopListener struct{}

// OnLocalAccess implements Listener.
func (NopListener) OnLocalAccess(uint64, bool) {}

// OnSnoop implements Listener.
func (NopListener) OnSnoop(uint64, bool) uint64 { return 0 }

// OnEvict implements Listener.
func (NopListener) OnEvict(uint64, bool) {}

// OnBusAck implements Listener.
func (NopListener) OnBusAck(uint64) {}

// Config sizes a private cache.
type Config struct {
	// Sets is the number of sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
}

// DefaultConfig mirrors the prototype's 32 KiB 4-way L1 data cache.
func DefaultConfig() Config { return Config{Sets: 128, Ways: 4} }

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * LineSize }

type lineEntry struct {
	tag   uint64 // line number (addr >> 6)
	state State
	data  [WordsPerLine]uint64
	lru   uint64
}

// Stats counts cache-local events.
type Stats struct {
	Loads      uint64
	Stores     uint64
	Hits       uint64
	Misses     uint64
	Upgrades   uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is one core's private data cache.
type Cache struct {
	id       int
	cfg      Config
	sets     [][]lineEntry
	bus      *Bus
	listener Listener
	tick     uint64
	stats    Stats
}

// New creates a cache, attaches it to the bus, and wires its listener.
// Core i must create cache i in order; the bus assigns IDs sequentially.
func New(cfg Config, bus *Bus, l Listener) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("cache: Sets must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("cache: Ways must be positive")
	}
	if l == nil {
		l = NopListener{}
	}
	c := &Cache{cfg: cfg, listener: l}
	lines := make([]lineEntry, cfg.Sets*cfg.Ways)
	c.sets = make([][]lineEntry, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	bus.attach(c)
	c.bus = bus
	return c
}

// ID returns the cache's bus index.
func (c *Cache) ID() int { return c.id }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(line uint64) int { return int(line) & (c.cfg.Sets - 1) }

// lookup returns the entry holding line, or nil.
func (c *Cache) lookup(line uint64) *lineEntry {
	set := c.sets[c.setIndex(line)]
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

// victim returns the entry to fill for line: an invalid way if any,
// otherwise the LRU way (which is evicted).
func (c *Cache) victim(line uint64) *lineEntry {
	set := c.sets[c.setIndex(line)]
	var lru *lineEntry
	for i := range set {
		e := &set[i]
		if e.state == Invalid {
			return e
		}
		if lru == nil || e.lru < lru.lru {
			lru = e
		}
	}
	// Evict.
	dirty := lru.state == Modified
	c.stats.Evictions++
	if dirty {
		c.stats.Writebacks++
		c.bus.writeback(lru.tag, &lru.data)
	}
	c.listener.OnEvict(lru.tag, dirty)
	lru.state = Invalid
	return lru
}

func (c *Cache) touch(e *lineEntry) {
	c.tick++
	e.lru = c.tick
}

// Load reads the aligned 64-bit word at addr, filling the line if needed.
func (c *Cache) Load(addr uint64) (uint64, Cost) {
	line := LineOf(addr)
	word := (addr >> 3) & (WordsPerLine - 1)
	cost := CostHit
	e := c.lookup(line)
	if e == nil {
		data, supplied, maxAck := c.bus.busRd(c.id, line)
		e = c.victim(line)
		e.tag = line
		e.data = data
		if supplied.sharers > 0 {
			e.state = Shared
		} else {
			e.state = Exclusive
		}
		if supplied.fromCache {
			cost = CostMissC2C
		} else {
			cost = CostMissMem
		}
		c.stats.Misses++
		c.listener.OnBusAck(maxAck)
	} else {
		c.stats.Hits++
	}
	c.touch(e)
	c.stats.Loads++
	v := e.data[word]
	c.listener.OnLocalAccess(line, false)
	return v, cost
}

// Store writes the aligned 64-bit word at addr, acquiring ownership as
// needed.
func (c *Cache) Store(addr uint64, val uint64) Cost {
	e, cost := c.acquireExclusive(addr)
	word := (addr >> 3) & (WordsPerLine - 1)
	e.data[word] = val
	e.state = Modified
	c.touch(e)
	c.stats.Stores++
	c.listener.OnLocalAccess(LineOf(addr), true)
	return cost
}

// RMW atomically applies f to the word at addr and returns the old value.
// The line is acquired exclusively before the read, so the read and write
// are indivisible with respect to the bus; the listener sees a read
// access followed by a write access, mirroring how the MRR inserts atomic
// instructions into both signatures.
func (c *Cache) RMW(addr uint64, f func(old uint64) uint64) (uint64, Cost) {
	e, cost := c.acquireExclusive(addr)
	word := (addr >> 3) & (WordsPerLine - 1)
	old := e.data[word]
	e.data[word] = f(old)
	e.state = Modified
	c.touch(e)
	c.stats.Loads++
	c.stats.Stores++
	line := LineOf(addr)
	c.listener.OnLocalAccess(line, false)
	c.listener.OnLocalAccess(line, true)
	return old, cost
}

// acquireExclusive ensures the line is present in M or E state.
func (c *Cache) acquireExclusive(addr uint64) (*lineEntry, Cost) {
	line := LineOf(addr)
	e := c.lookup(line)
	switch {
	case e == nil:
		data, supplied, maxAck := c.bus.busRdX(c.id, line)
		e = c.victim(line)
		e.tag = line
		e.data = data
		e.state = Exclusive
		c.stats.Misses++
		c.listener.OnBusAck(maxAck)
		if supplied.fromCache {
			return e, CostMissC2C
		}
		return e, CostMissMem
	case e.state == Shared:
		maxAck := c.bus.busUpgr(c.id, line)
		e.state = Exclusive
		c.stats.Upgrades++
		c.listener.OnBusAck(maxAck)
		return e, CostUpgrade
	default: // Exclusive or Modified
		c.stats.Hits++
		return e, CostHit
	}
}

// snoop handles a remote transaction. It returns this cache's data if it
// held the line Modified, whether it held the line at all, and the
// listener's clock acknowledgement.
func (c *Cache) snoop(line uint64, exclusive bool) (had bool, hadM bool, data [WordsPerLine]uint64, ack uint64) {
	// The listener acks every transaction, resident line or not: this is
	// the broadcast-bus clock propagation the recorder relies on.
	ack = c.listener.OnSnoop(line, exclusive)
	e := c.lookup(line)
	if e == nil {
		return false, false, data, ack
	}
	had = true
	if e.state == Modified {
		hadM = true
		data = e.data
		// Fold the dirty data back to memory on any snoop; the requester
		// also receives it cache-to-cache.
		c.bus.writeback(line, &e.data)
		c.stats.Writebacks++
	}
	if exclusive {
		e.state = Invalid
	} else if e.state == Modified || e.state == Exclusive {
		e.state = Shared
	}
	return had, hadM, data, ack
}

// FlushAll writes back every dirty line and invalidates the cache. Used
// at end of run so the memory image is architecturally complete, and by
// tests.
func (c *Cache) FlushAll() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			e := &c.sets[si][wi]
			if e.state == Modified {
				c.bus.writeback(e.tag, &e.data)
				c.stats.Writebacks++
			}
			e.state = Invalid
		}
	}
}

// WriteDirtyTo overlays this cache's Modified lines onto m without
// disturbing cache state — used to materialise an architecturally
// complete memory image (checkpoints) mid-run.
func (c *Cache) WriteDirtyTo(m interface {
	Store(addr uint64, v uint64)
}) {
	for si := range c.sets {
		for wi := range c.sets[si] {
			e := &c.sets[si][wi]
			if e.state != Modified {
				continue
			}
			base := e.tag * LineSize
			for w := 0; w < WordsPerLine; w++ {
				m.Store(base+uint64(w)*8, e.data[w])
			}
		}
	}
}

// StateOf reports the MESI state this cache holds for the line containing
// addr (Invalid when absent). For tests and inspection.
func (c *Cache) StateOf(addr uint64) State {
	if e := c.lookup(LineOf(addr)); e != nil {
		return e.state
	}
	return Invalid
}

// String summarises the cache for diagnostics.
func (c *Cache) String() string {
	return fmt.Sprintf("cache%d(%d sets x %d ways, %d B)", c.id, c.cfg.Sets, c.cfg.Ways, c.cfg.SizeBytes())
}
