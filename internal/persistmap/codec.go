package persistmap

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Codec encodes map values for the on-disk backup format. The codec's Name
// is written into every file header, making the format self-describing:
// loading a checkpoint with a codec whose name does not match the file's
// fails up front, and external tooling (cmd/persistctl) can pick the
// right built-in codec from the header alone.
//
// Append must append the encoding of v to dst and return the extended
// slice; Decode must consume exactly the bytes one Append produced (the
// store length-prefixes every record, so codecs never need framing of
// their own).
type Codec[V any] interface {
	Name() string
	Append(dst []byte, v V) ([]byte, error)
	Decode(data []byte) (V, error)
}

// IntCodec is the word fast path: values as 8-byte little-endian two's
// complement, no allocation per record.
type IntCodec struct{}

// Name implements Codec.
func (IntCodec) Name() string { return "int" }

// Append implements Codec.
func (IntCodec) Append(dst []byte, v int) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, uint64(v)), nil
}

// Decode implements Codec.
func (IntCodec) Decode(data []byte) (int, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("int codec: %d bytes, want 8", len(data))
	}
	return int(binary.LittleEndian.Uint64(data)), nil
}

// StringCodec is the string fast path: raw bytes, no escaping (the store's
// length prefix is the framing).
type StringCodec struct{}

// Name implements Codec.
func (StringCodec) Name() string { return "string" }

// Append implements Codec.
func (StringCodec) Append(dst []byte, v string) ([]byte, error) {
	return append(dst, v...), nil
}

// Decode implements Codec.
func (StringCodec) Decode(data []byte) (string, error) { return string(data), nil }

// BytesCodec stores []byte values verbatim. Decode copies, so the returned
// slice does not alias the file buffer.
type BytesCodec struct{}

// Name implements Codec.
func (BytesCodec) Name() string { return "bytes" }

// Append implements Codec.
func (BytesCodec) Append(dst []byte, v []byte) ([]byte, error) { return append(dst, v...), nil }

// Decode implements Codec.
func (BytesCodec) Decode(data []byte) ([]byte, error) {
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// JSONCodec is the generic fallback for arbitrary value types: one JSON
// document per record. Slower and larger than the fast paths, but it makes
// every V with exported fields durable without writing a codec.
type JSONCodec[V any] struct{}

// Name implements Codec.
func (JSONCodec[V]) Name() string { return "json" }

// Append implements Codec.
func (JSONCodec[V]) Append(dst []byte, v V) ([]byte, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(dst, enc...), nil
}

// Decode implements Codec.
func (JSONCodec[V]) Decode(data []byte) (V, error) {
	var v V
	err := json.Unmarshal(data, &v)
	return v, err
}
