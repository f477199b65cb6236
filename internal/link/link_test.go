package link

import (
	"testing"

	"metro/internal/word"
)

func step(l *Link) { l.Commit(0) }

func TestDelayOne(t *testing.T) {
	l := New("t", 1)
	a, b := l.A(), l.B()
	a.Send(word.MakeData(0x5, 4))
	if !b.Recv().IsEmpty() {
		t.Fatal("word visible before commit")
	}
	step(l)
	got := b.Recv()
	if got.Kind != word.Data || got.Payload != 0x5 {
		t.Fatalf("after 1 cycle, B received %v", got)
	}
	step(l)
	if !b.Recv().IsEmpty() {
		t.Fatal("un-driven link should deliver Empty")
	}
}

func TestDelayN(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		l := New("t", d)
		a, b := l.A(), l.B()
		a.Send(word.MakeData(1, 4))
		for i := 0; i < d-1; i++ {
			step(l)
			if !b.Recv().IsEmpty() {
				t.Fatalf("delay %d: word arrived early at cycle %d", d, i+1)
			}
		}
		step(l)
		if b.Recv().Kind != word.Data {
			t.Fatalf("delay %d: word did not arrive after %d cycles", d, d)
		}
	}
}

func TestBidirectional(t *testing.T) {
	l := New("t", 2)
	a, b := l.A(), l.B()
	a.Send(word.MakeData(0xA, 4))
	b.Send(word.MakeData(0xB, 4))
	step(l)
	step(l)
	if got := b.Recv(); got.Payload != 0xA {
		t.Fatalf("B received %v", got)
	}
	if got := a.Recv(); got.Payload != 0xB {
		t.Fatalf("A received %v", got)
	}
}

func TestBCBPropagation(t *testing.T) {
	l := New("t", 2)
	a, b := l.A(), l.B()
	b.SendBCB(true)
	if a.RecvBCB() {
		t.Fatal("BCB visible before commit")
	}
	step(l)
	if a.RecvBCB() {
		t.Fatal("BCB arrived early")
	}
	step(l)
	if !a.RecvBCB() {
		t.Fatal("BCB did not arrive after delay")
	}
	step(l)
	if a.RecvBCB() {
		t.Fatal("BCB should deassert when no longer driven")
	}
}

func TestPipelinedStream(t *testing.T) {
	// Words sent on consecutive cycles arrive on consecutive cycles in
	// order — the link is a transparent pipeline.
	l := New("t", 3)
	a, b := l.A(), l.B()
	var got []uint32
	for i := 0; i < 10; i++ {
		a.Send(word.MakeData(uint32(i), 8))
		step(l)
		if w := b.Recv(); !w.IsEmpty() {
			got = append(got, w.Payload)
		}
	}
	// Drain.
	for i := 0; i < 3; i++ {
		step(l)
		if w := b.Recv(); !w.IsEmpty() {
			got = append(got, w.Payload)
		}
	}
	if len(got) != 10 {
		t.Fatalf("received %d words, want 10", len(got))
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out of order: got[%d] = %d", i, v)
		}
	}
}

func TestKillRevive(t *testing.T) {
	l := New("t", 1)
	a, b := l.A(), l.B()
	a.Send(word.MakeData(1, 4))
	b.SendBCB(true)
	step(l)
	l.Kill()
	if !l.Dead() {
		t.Fatal("Dead() should report true")
	}
	if !b.Recv().IsEmpty() {
		t.Fatal("dead link delivered a word")
	}
	if a.RecvBCB() {
		t.Fatal("dead link delivered BCB")
	}
	l.Revive()
	if l.Dead() {
		t.Fatal("Revive did not clear Dead")
	}
	a.Send(word.MakeData(2, 4))
	step(l)
	if b.Recv().Payload != 2 {
		t.Fatal("revived link did not carry traffic")
	}
}

func TestCorruptor(t *testing.T) {
	l := New("t", 1)
	a, b := l.A(), l.B()
	l.SetCorruptor(func(w word.Word) word.Word {
		w.Payload ^= 0x1
		return w
	}, nil)
	a.Send(word.MakeData(0x4, 4))
	b.Send(word.MakeData(0x4, 4))
	step(l)
	if got := b.Recv(); got.Payload != 0x5 {
		t.Fatalf("A->B corruptor not applied: %v", got)
	}
	if got := a.Recv(); got.Payload != 0x4 {
		t.Fatalf("B->A should be clean: %v", got)
	}
}

func TestCorruptorSkipsEmpty(t *testing.T) {
	l := New("t", 1)
	called := false
	l.SetCorruptor(func(w word.Word) word.Word {
		called = true
		return w
	}, nil)
	step(l)
	_ = l.B().Recv()
	if called {
		t.Fatal("corruptor must not run on Empty slots")
	}
}

func TestNameAndDelayAccessors(t *testing.T) {
	l := New("r0.b2->r5.f1", 4)
	if l.Name() != "r0.b2->r5.f1" {
		t.Fatalf("Name() = %q", l.Name())
	}
	if l.Delay() != 4 {
		t.Fatalf("Delay() = %d", l.Delay())
	}
	if l.A().Link() != l || l.B().Link() != l {
		t.Fatal("End.Link() should return the parent link")
	}
}

func TestZeroDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with delay 0 should panic")
		}
	}()
	New("bad", 0)
}
