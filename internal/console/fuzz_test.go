package console

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// maxFrameAlloc bounds what decoding one frame may allocate: at most a
// MaxData payload buffer, plus the fixed-size Message and error values.
const maxFrameAlloc = MaxData + 1<<10

// FuzzReadMessage feeds arbitrary bytes to the wire decoder, frame by
// frame, as a peer on the other end of a console link could. Decoding
// must never panic, never allocate more than maxFrameAlloc per frame —
// a declared length is only honoured up to MaxData — and every frame
// that decodes must re-encode to exactly the bytes it was read from.
func FuzzReadMessage(f *testing.F) {
	for _, m := range []*Message{
		{Type: MsgHello, Subjob: 3, Seq: 7},
		{Type: MsgData, Stream: Stdout, Subjob: 1, Seq: 42, Data: []byte("hello, grid\n")},
		{Type: MsgData, Stream: Aux(2), Seq: 1 << 40, Data: []byte{0}},
		{Type: MsgAck, Seq: 99},
		{Type: MsgEOF, Stream: Stderr, Subjob: 65535, Seq: 5},
	} {
		buf, err := AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	two, _ := AppendMessage(nil, &Message{Type: MsgAck, Seq: 1})
	two, _ = AppendMessage(two, &Message{Type: MsgData, Stream: Stdin, Data: []byte("x")})
	f.Add(two)
	f.Add([]byte{})
	f.Add([]byte{byte(MsgData), 0, 0, 1})                                                                      // truncated header
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})                                              // type 0
	f.Add(binary.BigEndian.AppendUint32(make([]byte, 12, 16), MaxData+1))                                      // oversized, type 0
	f.Add(append([]byte{byte(MsgData)}, binary.BigEndian.AppendUint32(make([]byte, 11, 15), MaxData)...))      // max length, no payload
	f.Add(append([]byte{byte(MsgData)}, binary.BigEndian.AppendUint32(make([]byte, 11, 15), MaxData+4096)...)) // over the limit
	f.Add(append([]byte{byte(MsgData)}, binary.BigEndian.AppendUint32(make([]byte, 11, 15), 1<<31)...))        // huge length

	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		var before, after runtime.MemStats
		for {
			off := len(in) - r.Len()
			runtime.ReadMemStats(&before)
			m, err := ReadMessage(r)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > maxFrameAlloc {
				t.Fatalf("decoding the frame at offset %d allocated %d bytes, limit %d", off, n, maxFrameAlloc)
			}
			if err != nil {
				return
			}
			consumed := in[off : len(in)-r.Len()]
			out, err := AppendMessage(nil, m)
			if err != nil {
				t.Fatalf("decoded frame at offset %d does not re-encode: %v", off, err)
			}
			if !bytes.Equal(out, consumed) {
				t.Fatalf("frame at offset %d re-encodes differently:\n read   %x\n encode %x", off, consumed, out)
			}
		}
	})
}
