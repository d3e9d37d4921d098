package x86

import (
	"encoding/hex"
	"strings"
)

// Block is a basic block: a straight-line instruction sequence with no
// internal control flow, as extracted from an application binary. This is
// the unit the BHive suite profiles and models predict.
type Block struct {
	Insts []Inst
}

// BlockFromHex decodes a basic block from its machine-code hex string — the
// storage format of the benchmark suite.
func BlockFromHex(s string) (*Block, error) {
	raw, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil {
		return nil, err
	}
	insts, err := DecodeBlock(raw)
	if err != nil {
		return nil, err
	}
	return &Block{Insts: insts}, nil
}

// ParseBlock assembles a multi-line listing (Intel or AT&T) into a block.
func ParseBlock(text string, syntax Syntax) (*Block, error) {
	insts, err := Parse(text, syntax)
	if err != nil {
		return nil, err
	}
	return &Block{Insts: insts}, nil
}

// Bytes encodes the block to machine code.
func (b *Block) Bytes() ([]byte, error) { return EncodeBlock(b.Insts) }

// Hex encodes the block to its hex storage form.
func (b *Block) Hex() (string, error) {
	raw, err := b.Bytes()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(raw), nil
}

// String renders the block as one Intel-syntax instruction per line.
func (b *Block) String() string {
	var sb strings.Builder
	for i := range b.Insts {
		sb.WriteString(b.Insts[i].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// NumLoads counts memory-reading instructions.
func (b *Block) NumLoads() int {
	n := 0
	for i := range b.Insts {
		if b.Insts[i].IsLoad() {
			n++
		}
	}
	return n
}

// NumStores counts memory-writing instructions.
func (b *Block) NumStores() int {
	n := 0
	for i := range b.Insts {
		if b.Insts[i].IsStore() {
			n++
		}
	}
	return n
}

// HasVector reports whether the block contains any XMM/YMM instruction.
func (b *Block) HasVector() bool {
	for i := range b.Insts {
		for _, a := range b.Insts[i].Args {
			if a.Kind == KindReg && a.Reg.IsVec() {
				return true
			}
		}
	}
	return false
}
