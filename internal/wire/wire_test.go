package wire

import (
	"strings"
	"testing"
)

func TestMsgConstruction(t *testing.T) {
	m := Msg(KindRotation, 7, 3)
	if m.Kind != KindRotation || m.NArgs != 2 {
		t.Fatalf("msg %+v", m)
	}
	if m.Arg(0) != 7 || m.Arg(1) != 3 {
		t.Fatal("args wrong")
	}
	if m.Arg(2) != 0 || m.Arg(-1) != 0 {
		t.Fatal("out-of-range Arg should be 0")
	}
}

func TestMsgPanicsOnTooManyArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Msg(KindProgress, 1, 2, 3, 4, 5)
}

func TestString(t *testing.T) {
	if s := Msg(KindRotation, 7, 3).String(); s != "rotation(7,3)" {
		t.Fatalf("got %q", s)
	}
	if s := Msg(KindSuccess).String(); s != "success()" {
		t.Fatalf("got %q", s)
	}
	if s := Kind(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("got %q", s)
	}
}

func TestCodecIDBits(t *testing.T) {
	cases := []struct{ n, bits int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := NewCodec(c.n).IDBits; got != c.bits {
			t.Errorf("NewCodec(%d).IDBits = %d, want %d", c.n, got, c.bits)
		}
	}
}

func TestBitsAccounting(t *testing.T) {
	c := NewCodec(1024) // 10 id bits
	if got := c.Bits(Msg(KindSuccess)); got != 8 {
		t.Fatalf("zero-arg bits %d", got)
	}
	if got := c.Bits(Msg(KindRotation, 1, 2)); got != 8+20 {
		t.Fatalf("two-arg bits %d", got)
	}
	if got := c.Bits(Msg(KindVerified, 1, 2, 3, 4)); got != 8+40 {
		t.Fatalf("four-arg bits %d", got)
	}
}

func TestAllMessagesFitCONGEST(t *testing.T) {
	// Every kind with the max number of args must fit in O(log n) bits;
	// the simulator default bandwidth is 8*IDBits. Check the paper's
	// requirement with a generous constant.
	for _, n := range []int{16, 1024, 1 << 20} {
		c := NewCodec(n)
		budget := int64(8 * c.IDBits)
		m := Msg(KindVerified, 1, 2, 3, 4)
		if c.Bits(m) > budget {
			t.Fatalf("n=%d: widest message %d bits exceeds budget %d", n, c.Bits(m), budget)
		}
	}
}

// TestKindValid pins the defined-kind range decoders validate against:
// [1, NumKinds), with 0 and everything from NumKinds up rejected.
func TestKindValid(t *testing.T) {
	for k := 0; k < 256; k++ {
		if got, want := Kind(k).Valid(), k >= 1 && k < NumKinds; got != want {
			t.Errorf("Kind(%d).Valid() = %v, want %v", k, got, want)
		}
	}
}
