package relation

import (
	"encoding/binary"
	"errors"
	"math"

	"intervaljoin/internal/interval"
)

// This file is the engine's one record format. Every record the MR engine
// stores or shuffles — staged and resident inputs, map→reduce values,
// cycle boundaries, spill payloads — is a header followed by a tuple, in
// encoding/binary varints:
//
//	record := uvarint(rel) uvarint(attr) uvarint(nflags) flagbytes tuple
//	tuple  := varint(id) uvarint(arity) arity × (varint(start) uvarint(end-start))
//	row    := varint(id)*
//
// rel is the relation's index in the query (zero in staged inputs), attr a
// vertex attribute (Gen-Matrix), and the nflags flag bits are packed eight
// to a byte, bit i at byte i/8, bit i%8, with the padding bits zero. Ids
// and starts are zigzag varints; each end is stored as its distance from
// the start. A value may concatenate several records (the cascade's
// partial assignments); every record is self-delimiting. Join output rows
// are zigzag varint ids and nothing else.
//
// Decoding accepts only what the encoder writes — minimal varints, zero
// padding, no trailing bytes — so every record has exactly one encoding.

// Header is the routing metadata in front of a record's tuple.
type Header struct {
	Rel, Attr int
	Flags     []bool
}

// Flagged reports whether any flag bit is set.
func (h Header) Flagged() bool {
	for _, f := range h.Flags {
		if f {
			return true
		}
	}
	return false
}

// AppendRecord appends the record of (h, t) to dst.
func AppendRecord(dst []byte, h Header, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Rel))
	dst = binary.AppendUvarint(dst, uint64(h.Attr))
	dst = binary.AppendUvarint(dst, uint64(len(h.Flags)))
	for i := 0; i < len(h.Flags); i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < len(h.Flags); j++ {
			if h.Flags[i+j] {
				b |= 1 << j
			}
		}
		dst = append(dst, b)
	}
	dst = binary.AppendVarint(dst, t.ID)
	dst = binary.AppendUvarint(dst, uint64(len(t.Attrs)))
	for _, iv := range t.Attrs {
		dst = binary.AppendVarint(dst, iv.Start)
		dst = binary.AppendUvarint(dst, uint64(iv.End)-uint64(iv.Start))
	}
	return dst
}

// EncodeRecord returns the record of (h, t) as a string.
func EncodeRecord(h Header, t Tuple) string {
	var buf [64]byte
	return string(AppendRecord(buf[:0], h, t))
}

// NextRecord decodes the first record of s and returns the bytes after it.
func NextRecord(s string) (Header, Tuple, string, error) {
	r := reader{s: s}
	h := r.header()
	t := Tuple{ID: r.varint()}
	n := r.arity()
	if r.err == nil {
		t.Attrs = make([]interval.Interval, n)
		for i := range t.Attrs {
			t.Attrs[i] = r.interval()
		}
	}
	if r.err != nil {
		return Header{}, Tuple{}, "", r.err
	}
	return h, t, r.s, nil
}

// DecodeRecord decodes s, which must hold exactly one record.
func DecodeRecord(s string) (Header, Tuple, error) {
	h, t, rest, err := NextRecord(s)
	if err == nil && rest != "" {
		err = errTrailing
	}
	return h, t, err
}

// DecodeHeader decodes only the header of record s.
func DecodeHeader(s string) (Header, error) {
	r := reader{s: s}
	h := r.header()
	return h, r.err
}

// FirstAttr returns the first attribute interval of record s without
// decoding the rest of the tuple.
func FirstAttr(s string) (interval.Interval, error) {
	r := reader{s: s}
	r.header()
	r.varint()
	if n := r.arity(); n == 0 {
		r.fail(errNoAttrs)
	}
	iv := r.interval()
	return iv, r.err
}

// AppendRecord decodes the single record s straight into the arena and
// returns its header and tuple ref. On error the arena is unchanged.
func (a *Arena) AppendRecord(s string) (Header, int32, error) {
	r := reader{s: s}
	h := r.header()
	id := r.varint()
	n := r.arity()
	flat0 := len(a.flat)
	for i := 0; i < n && r.err == nil; i++ {
		a.flat = append(a.flat, r.interval())
	}
	if r.err == nil && r.s != "" {
		r.err = errTrailing
	}
	if r.err != nil {
		a.flat = a.flat[:flat0]
		return Header{}, 0, r.err
	}
	a.initBase()
	a.ids = append(a.ids, id)
	a.base = append(a.base, int32(len(a.flat)))
	return h, int32(len(a.ids) - 1), nil
}

// EncodeRow returns the output row of ids.
func EncodeRow(ids []int64) string {
	var buf [40]byte
	b := buf[:0]
	for _, id := range ids {
		b = binary.AppendVarint(b, id)
	}
	return string(b)
}

// DecodeRow decodes an output row.
func DecodeRow(s string) ([]int64, error) {
	r := reader{s: s}
	var ids []int64
	for r.s != "" && r.err == nil {
		ids = append(ids, r.varint())
	}
	return ids, r.err
}

// CutUvarint decodes the minimal uvarint at the front of s and returns the
// bytes after it — the primitive the engine's spill frames are read with.
func CutUvarint(s string) (uint64, string, error) {
	r := reader{s: s}
	v := r.uvarint()
	return v, r.s, r.err
}

var (
	errTruncated = errors.New("relation: truncated record")
	errTrailing  = errors.New("relation: trailing bytes after record")
	errRange     = errors.New("relation: record field out of range")
	errPadding   = errors.New("relation: non-canonical record encoding")
	errNoAttrs   = errors.New("relation: record tuple has no attributes")
)

// reader is a bounds-checked cursor over record bytes. The first error
// sticks: later reads return zero values, so callers check err once.
type reader struct {
	s   string
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// uvarint reads a minimal uvarint: a continuation byte followed by a zero
// final byte, or a tenth byte above 1, is rejected.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	for i := 0; i < len(r.s) && i < binary.MaxVarintLen64; i++ {
		b := r.s[i]
		if b < 0x80 {
			if (i > 0 && b == 0) || (i == binary.MaxVarintLen64-1 && b > 1) {
				r.fail(errPadding)
				return 0
			}
			r.s = r.s[i+1:]
			return x | uint64(b)<<(7*i)
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	r.fail(errTruncated)
	return 0
}

func (r *reader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// small reads a uvarint that must fit an int32 (relation and attribute
// indices, arities).
func (r *reader) small() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail(errRange)
		return 0
	}
	return int(v)
}

func (r *reader) header() Header {
	h := Header{Rel: r.small(), Attr: r.small()}
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return h
	}
	if n > uint64(len(r.s))*8 {
		r.fail(errTruncated)
		return h
	}
	packed := r.s[:(n+7)/8]
	if n%8 != 0 && packed[len(packed)-1]>>(n%8) != 0 {
		r.fail(errPadding)
		return h
	}
	h.Flags = make([]bool, n)
	for i := range h.Flags {
		h.Flags[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	r.s = r.s[len(packed):]
	return h
}

// arity reads an attribute count, bounded by the bytes left (an attribute
// takes at least two) before anything is allocated for it.
func (r *reader) arity() int {
	n := r.small()
	if n > len(r.s)/2 {
		r.fail(errTruncated)
		return 0
	}
	return n
}

// interval reads one (start, length) pair; an end past MaxInt64 is
// rejected.
func (r *reader) interval() interval.Interval {
	start := r.varint()
	length := r.uvarint()
	if r.err == nil && length > uint64(math.MaxInt64)-uint64(start) {
		r.fail(errRange)
	}
	if r.err != nil {
		return interval.Interval{}
	}
	return interval.Interval{Start: start, End: int64(uint64(start) + length)}
}
