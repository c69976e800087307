package tango

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpString(t *testing.T) {
	names := map[Op]string{Read: "read", Write: "write", Lock: "lock", Unlock: "unlock", Barrier: "barrier"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(op), op.String(), want)
		}
	}
	if Op(9).String() == "" {
		t.Error("unknown op should render")
	}
}

func TestIsSync(t *testing.T) {
	if Read.IsSync() || Write.IsSync() {
		t.Fatal("read/write must not be sync")
	}
	if !Lock.IsSync() || !Unlock.IsSync() || !Barrier.IsSync() {
		t.Fatal("lock/unlock/barrier must be sync")
	}
}

func TestStream(t *testing.T) {
	refs := []Ref{MakeRef(Read, 0), MakeRef(Write, 8), MakeRef(Barrier, 16)}
	s := NewStream(refs)
	if s.Len() != 3 || s.Remaining() != 3 {
		t.Fatal("length wrong")
	}
	for i := 0; i < 3; i++ {
		r, ok := s.Next()
		if !ok || r != refs[i] {
			t.Fatalf("Next %d = %v, %v", i, r, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
	if s.Remaining() != 0 {
		t.Fatal("Remaining should be 0")
	}
}

// TestRefPacked pins the one-word reference: every op round-trips at the
// ends of the address field, and MakeRef refuses what the word cannot hold.
func TestRefPacked(t *testing.T) {
	if n := unsafe.Sizeof(Ref(0)); n != 8 {
		t.Fatalf("a Ref takes %d bytes, want 8", n)
	}
	for op := Read; op <= Barrier; op++ {
		for _, addr := range []int64{0, 1, 1 << 32, MaxAddr} {
			r := MakeRef(op, addr)
			if r.Op() != op || r.Addr() != addr {
				t.Errorf("MakeRef(%v, %#x) reads back as %v %#x", op, addr, r.Op(), r.Addr())
			}
		}
	}
	if got, want := MakeRef(Write, 0x40).String(), "write 0x40"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	for _, bad := range []struct {
		op   Op
		addr int64
	}{{Read, MaxAddr + 1}, {Barrier, 1 << 62}, {Write, -8}, {Barrier + 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeRef(%v, %#x) did not panic", bad.op, bad.addr)
				}
			}()
			MakeRef(bad.op, bad.addr)
		}()
	}
	defer func() {
		if msg := fmt.Sprint(recover()); msg != "tango: no reference for write at 0x2000000000000000 (addresses lie in [0, 0x1fffffffffffffff])" {
			t.Errorf("panic message %q", msg)
		}
	}()
	MakeRef(Write, MaxAddr+1)
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator(16)
	r1 := a.Words(3) // 24 bytes -> padded to 32
	r2 := a.Words(1)
	if r1.Base() != 0 || r1.Size() != 24 || r1.Words() != 3 {
		t.Fatalf("r1 = %+v", r1)
	}
	if r2.Base() != 32 {
		t.Fatalf("r2 base = %d, want 32 (block aligned)", r2.Base())
	}
	if a.TotalBytes() != 48 {
		t.Fatalf("TotalBytes = %d, want 48", a.TotalBytes())
	}
}

func TestAllocatorPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for bad block size")
			}
		}()
		NewAllocator(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for empty region")
			}
		}()
		NewAllocator(16).Words(0)
	}()
}

func TestRegionWord(t *testing.T) {
	a := NewAllocator(16)
	r := a.Words(4)
	if r.Word(0) != r.Base() || r.Word(3) != r.Base()+24 {
		t.Fatal("word addressing wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range word")
		}
	}()
	r.Word(4)
}

func TestBuilderAndCharacterize(t *testing.T) {
	a := NewAllocator(16)
	r := a.Words(8)
	var b Builder
	b.ReadRange(r, 0, 4)
	b.WriteRange(r, 0, 2)
	b.Lock(r.Word(7))
	b.Unlock(r.Word(7))
	b.Barrier(r.Word(6))
	w := Workload{Name: "t", Streams: [][]Ref{b.Refs()}, SharedBytes: a.TotalBytes()}
	c := w.Characterize()
	if c.SharedReads != 4 || c.SharedWrites != 2 || c.SyncOps != 3 {
		t.Fatalf("characteristics = %+v", c)
	}
	if c.SharedRefs != 6 {
		t.Fatalf("SharedRefs = %d, want 6", c.SharedRefs)
	}
	if c.SharedBytes != 64 {
		t.Fatalf("SharedBytes = %d, want 64", c.SharedBytes)
	}
	if w.Procs() != 1 {
		t.Fatal("Procs wrong")
	}
}

// Property: regions from one allocator never overlap and are block-aligned.
func TestQuickAllocatorDisjoint(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := NewAllocator(16)
		var regions []Region
		for _, s := range sizes {
			n := int64(s%32) + 1
			regions = append(regions, a.Words(n))
		}
		for i, r := range regions {
			if r.Base()%16 != 0 {
				return false
			}
			for j := i + 1; j < len(regions); j++ {
				q := regions[j]
				if r.Base() < q.Base()+q.Size() && q.Base() < r.Base()+r.Size() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
