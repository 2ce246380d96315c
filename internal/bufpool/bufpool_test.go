package bufpool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class, size int }{
		{0, 0, 1 << 10}, {1, 0, 1 << 10}, {1 << 10, 0, 1 << 10},
		{1<<10 + 1, 1, 1280}, {1280, 1, 1280}, {1281, 2, 1536}, {1 << 11, 4, 1 << 11},
		{100 << 10, 27, 112 << 10},
		{128<<10 + 22, 29, 160 << 10}, // a default transport buffer plus its chunk header
		{1 << 24, numClasses - 1, 1 << 24},
		{1<<24 + 1, -1, 0},
	}
	for _, c := range cases {
		got := classFor(c.n)
		if got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
		if got >= 0 && classSize(got) != c.size {
			t.Errorf("classSize(%d) = %d, want %d", got, classSize(got), c.size)
		}
		if want := max(c.size, c.n); ClassSize(c.n) != want { // oversize: its own length
			t.Errorf("ClassSize(%d) = %d, want %d", c.n, ClassSize(c.n), want)
		}
	}
	// Every size lands in the smallest class that holds it, with under a
	// quarter to spare above 1 KiB, and labels do not collide.
	labels := map[string]bool{}
	for c := 0; c < numClasses; c++ {
		size := classSize(c)
		if classFor(size) != c || classFor(size+1) != c+1 && c != numClasses-1 {
			t.Errorf("class %d (%d bytes) is not where its own size and the next byte land", c, size)
		}
		if c > 0 && (size-classSize(c-1))*5 > size {
			t.Errorf("class %d wastes more than a quarter over class %d", c, c-1)
		}
		if l := (ClassStat{Size: size}).Label(); labels[l] {
			t.Errorf("two classes are labelled %s", l)
		} else {
			labels[l] = true
		}
	}
}

func TestGetReleaseRecycles(t *testing.T) {
	p := New()
	l := p.Get(1000)
	if len(l.Bytes()) != 1000 || cap(l.Bytes()) != 1<<10 {
		t.Fatalf("lease len=%d cap=%d", len(l.Bytes()), cap(l.Bytes()))
	}
	// The class-sized buffer must come back on a subsequent Get. One
	// cycle is not guaranteed: sync.Pool deliberately drops a fraction
	// of Puts under the race detector, so allow a few attempts — any
	// recycle proves the size-class wiring.
	recycled := false
	attempts := 0
	for ; attempts < 32 && !recycled; attempts++ {
		buf := &l.Bytes()[0]
		l.Release()
		l = p.Get(512)
		recycled = &l.Bytes()[0] == buf
	}
	if !recycled {
		t.Error("released buffer never recycled")
	}
	l.Release()
	st := p.Stats()
	if st.Gets != int64(1+attempts) || st.Puts != st.Gets || st.Misses < 1 || st.Outstanding != 0 {
		t.Errorf("stats = %+v after %d attempts", st, attempts)
	}
}

func TestLeakCheckFailsOnHeldLease(t *testing.T) {
	p := New()
	l := p.Get(64)
	if err := p.LeakCheck(); err == nil {
		t.Fatal("LeakCheck passed with an outstanding lease")
	}
	l.Release()
	if err := p.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck after release: %v", err)
	}
}

func TestRetainSharesOneBuffer(t *testing.T) {
	p := New()
	l := p.Get(8)
	copy(l.Bytes(), "segment!")
	l.Retain() // second reader
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if string(l.Bytes()) != "segment!" {
				t.Error("reader observed wrong bytes")
			}
			l.Release()
		}()
	}
	wg.Wait()
	if err := p.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAfterFinalPanics(t *testing.T) {
	p := New()
	l := p.Get(1 << 25) // oversize: not recycled, safe to double-release
	l.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	l.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	p := New()
	l := p.Get(1 << 25)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Error("Retain after final Release did not panic")
		}
	}()
	l.Retain()
}

func TestOversizeLease(t *testing.T) {
	p := New()
	l := p.Get(1<<24 + 1)
	if len(l.Bytes()) != 1<<24+1 {
		t.Fatalf("oversize len = %d", len(l.Bytes()))
	}
	l.Release()
	if st := p.Stats(); st.Oversize != 1 || st.Outstanding != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAdopt(t *testing.T) {
	p := New()
	buf := []byte("adopted")
	l := p.Adopt(buf)
	if &l.Bytes()[0] != &buf[0] {
		t.Fatal("Adopt copied")
	}
	l.Release()
	if err := p.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	// An adopted buffer must not enter a size class.
	l2 := p.Get(len(buf))
	if cap(l2.Bytes()) == len(buf) {
		t.Error("adopted buffer recycled into a class")
	}
	l2.Release()
}

func TestSetLen(t *testing.T) {
	p := New()
	l := p.Get(10)
	l.SetLen(0)
	if len(l.Bytes()) != 0 {
		t.Fatal("SetLen(0) ignored")
	}
	l.SetLen(cap(l.Bytes()))
	defer l.Release()
	defer func() {
		if recover() == nil {
			t.Error("SetLen beyond capacity did not panic")
		}
	}()
	l.SetLen(cap(l.Bytes()) + 1)
}

func TestConcurrentGetRelease(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := p.Get((seed+1)*1024 + i)
				l.Bytes()[0] = byte(i)
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	if err := p.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonReleased: with the switch on, the final Release — not an
// earlier one of a shared lease — overwrites the whole buffer, so bytes
// read after giving a lease back are never the bytes it held.
func TestPoisonReleased(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	p := New()
	l := p.Get(100)
	b := l.Bytes()
	for i := range b {
		b[i] = byte(i)
	}
	l.Retain()
	l.Release()
	if b[7] != 7 {
		t.Fatal("a lease still held by a second reader was overwritten")
	}
	l.Release()
	for i, c := range b {
		if c != 0xA5 {
			t.Fatalf("byte %d of a released lease still reads %#x", i, c)
		}
	}
	PoisonReleased(false)
	l = p.Get(100)
	copy(l.Bytes(), "kept")
	b = l.Bytes()
	l.Release()
	if string(b[:4]) != "kept" {
		t.Fatal("the buffer was overwritten with the switch off")
	}
}
