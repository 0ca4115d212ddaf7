package endhost

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

func TestGatedChunkProgramShape(t *testing.T) {
	addrs := []mem.Addr{mem.SRAMBase, mem.SRAMBase + 1, mem.SRAMBase + 2}
	tpp, err := GatedChunkProgram(9, addrs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tpp.Ins); got != 5 {
		t.Fatalf("instruction count = %d", got)
	}
	if tpp.Ins[0].Op != core.OpCEXEC {
		t.Fatalf("first op = %v", tpp.Ins[0].Op)
	}
	if tpp.MemWords() != 6 {
		t.Fatalf("MemWords = %d", tpp.MemWords())
	}
	if tpp.Word(1) != 9 {
		t.Fatalf("gate switch id word = %d", tpp.Word(1))
	}
	for w := 2; w < 6; w++ {
		if tpp.Word(w) != Unexecuted {
			t.Fatalf("result word %d not sentinel: %#x", w, tpp.Word(w))
		}
	}
	// Over-full and empty chunks are rejected.
	if _, err := GatedChunkProgram(9, make([]mem.Addr, 4), 5); err == nil {
		t.Fatal("4 addrs fit a 5-instruction chunk?")
	}
	if _, err := GatedChunkProgram(9, nil, 5); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if GatedChunkWords(5) != 3 {
		t.Fatalf("GatedChunkWords(5) = %d", GatedChunkWords(5))
	}
}

func TestDecodeGatedChunkAllOrNothing(t *testing.T) {
	tpp, err := GatedChunkProgram(3, []mem.Addr{mem.SRAMBase, mem.SRAMBase + 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint32, 2)
	// Never executed: every slot still sentinel.
	if _, ok := DecodeGatedChunk(tpp, vals); ok {
		t.Fatal("decoded a chunk that never executed")
	}
	// Executed: epoch and both values filled.
	tpp.SetWord(2, 4)
	tpp.SetWord(3, 100)
	tpp.SetWord(4, 200)
	epoch, ok := DecodeGatedChunk(tpp, vals)
	if !ok || epoch != 4 || vals[0] != 100 || vals[1] != 200 {
		t.Fatalf("decode: ok=%v epoch=%d vals=%v", ok, epoch, vals)
	}
	// A partially-filled echo (value slot still sentinel) is dropped
	// whole rather than folded half-garbage.
	tpp.SetWord(4, Unexecuted)
	if _, ok := DecodeGatedChunk(tpp, vals); ok {
		t.Fatal("decoded a chunk with a sentinel value slot")
	}
	// Nil and short echoes are rejected.
	if _, ok := DecodeGatedChunk(nil, vals); ok {
		t.Fatal("decoded nil echo")
	}
	if _, ok := DecodeGatedChunk(tpp, make([]uint32, 10)); ok {
		t.Fatal("decoded echo shorter than requested")
	}
}

func TestGatedRetryDelay(t *testing.T) {
	want := []netsim.Time{2, 4, 8, 16, 32, 64, 64, 64, 64}
	for retry, ms := range want {
		if got := GatedRetryDelay(retry); got != ms*netsim.Millisecond {
			t.Errorf("GatedRetryDelay(%d) = %v, want %dms", retry, got, ms)
		}
	}
}
