package metrics

import (
	"strings"
	"testing"
)

func TestAddMessage(t *testing.T) {
	c := NewCounters(3)
	c.AddMessage(10)
	c.AddMessage(32)
	c.AddMessage(8)
	if c.Messages != 3 || c.Bits != 50 || c.MaxMessageBits != 32 {
		t.Fatalf("got msgs=%d bits=%d max=%d", c.Messages, c.Bits, c.MaxMessageBits)
	}
}

// TestAddMessagesMatchesAddMessage: a bulk add meters exactly what the
// same number of single adds would, and an empty one meters nothing.
func TestAddMessagesMatchesAddMessage(t *testing.T) {
	bulk, single := NewCounters(1), NewCounters(1)
	for _, b := range []struct{ count, bits int64 }{{3, 10}, {0, 99}, {2, 32}, {1, 8}} {
		bulk.AddMessages(b.count, b.bits)
		for i := int64(0); i < b.count; i++ {
			single.AddMessage(b.bits)
		}
	}
	if bulk.Messages != single.Messages || bulk.Bits != single.Bits || bulk.MaxMessageBits != single.MaxMessageBits {
		t.Fatalf("AddMessages metered %d msgs, %d bits, max %d; AddMessage calls %d, %d, %d",
			bulk.Messages, bulk.Bits, bulk.MaxMessageBits, single.Messages, single.Bits, single.MaxMessageBits)
	}
}

func TestObserveMemoryKeepsMax(t *testing.T) {
	c := NewCounters(2)
	c.ObserveMemory(0, 10)
	c.ObserveMemory(0, 5)
	c.ObserveMemory(0, 20)
	c.ObserveMemory(5, 99) // out of range: ignored
	d := c.MemoryDistribution()
	if d.Max != 20 || d.Min != 0 {
		t.Fatalf("distribution %+v", d)
	}
}

func TestWorkAndBalance(t *testing.T) {
	c := NewCounters(4)
	for v := 0; v < 4; v++ {
		c.AddWork(v, 10)
	}
	c.AddWork(0, 30) // node 0 does 4x the mean-ish work
	d := c.WorkDistribution()
	if d.Total != 70 || d.Max != 40 {
		t.Fatalf("distribution %+v", d)
	}
}

func TestMerge(t *testing.T) {
	a := NewCounters(2)
	b := NewCounters(2)
	a.Rounds, b.Rounds = 3, 4
	a.Steps, b.Steps = 1, 2
	a.AddMessage(8)
	b.AddMessage(16)
	a.ObserveMemory(0, 5)
	b.ObserveMemory(0, 9)
	b.ObserveMemory(1, 2)
	a.AddWork(1, 7)
	b.AddWork(1, 3)
	a.Merge(b)
	if a.Rounds != 7 || a.Steps != 3 || a.Messages != 2 || a.Bits != 24 {
		t.Fatalf("merged scalars wrong: %+v", a)
	}
	if a.MaxMessageBits != 16 {
		t.Fatalf("max bits %d", a.MaxMessageBits)
	}
	mem := a.MemoryDistribution()
	if mem.Max != 9 {
		t.Fatalf("merged memory max %d", mem.Max)
	}
	work := a.WorkDistribution()
	if work.Total != 10 {
		t.Fatalf("merged work total %d", work.Total)
	}
}

func TestDistributionOrderStats(t *testing.T) {
	c := NewCounters(100)
	for v := 0; v < 100; v++ {
		c.AddWork(v, int64(v+1))
	}
	d := c.WorkDistribution()
	if d.Min != 1 || d.Max != 100 || d.P50 != 50 {
		t.Fatalf("order stats wrong: %+v", d)
	}
	if d.P99 < 99 {
		t.Fatalf("P99 = %d", d.P99)
	}
}

func TestEmptyDistribution(t *testing.T) {
	c := NewCounters(0)
	d := c.MemoryDistribution()
	if d.Max != 0 || d.Mean != 0 {
		t.Fatalf("empty distribution %+v", d)
	}
}

func TestString(t *testing.T) {
	c := NewCounters(1)
	c.Rounds = 5
	if s := c.String(); !strings.Contains(s, "rounds=5") {
		t.Fatalf("summary %q", s)
	}
}
