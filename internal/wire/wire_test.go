package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"demikernel/internal/simnet"
)

func TestEthRoundtrip(t *testing.T) {
	h := EthHeader{
		Dst:       simnet.MAC{1, 2, 3, 4, 5, 6},
		Src:       simnet.MAC{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeIPv4,
	}
	buf := make([]byte, EthHeaderLen+3)
	n := h.Marshal(buf)
	if n != EthHeaderLen {
		t.Fatalf("marshal consumed %d, want %d", n, EthHeaderLen)
	}
	got, payload, err := ParseEth(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v, want %+v", got, h)
	}
	if len(payload) != 3 {
		t.Errorf("payload length %d, want 3", len(payload))
	}
}

func TestEthTruncated(t *testing.T) {
	if _, _, err := ParseEth(make([]byte, 13)); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestChecksumRFCExample(t *testing.T) {
	// Example from RFC 1071 §3: the checksum of these words is well known.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	ck := Checksum(data)
	// Verify the defining property instead of a magic constant: appending
	// the checksum makes the buffer sum to zero.
	withCk := append(append([]byte{}, data...), byte(ck>>8), byte(ck))
	if Checksum(withCk) != 0 {
		t.Error("checksum does not self-verify")
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Error("odd-length padding wrong")
	}
}

func TestIPv4Roundtrip(t *testing.T) {
	h := IPv4Header{
		TOS:      0,
		TotalLen: IPv4HeaderLen + 11,
		ID:       0x1234,
		Flags:    DontFragment,
		TTL:      64,
		Proto:    ProtoUDP,
		Src:      IPAddr{10, 0, 0, 1},
		Dst:      IPAddr{10, 0, 0, 2},
	}
	buf := make([]byte, 64)
	h.Marshal(buf)
	got, payload, err := ParseIPv4(buf[:h.TotalLen])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v, want %+v", got, h)
	}
	if len(payload) != 11 {
		t.Errorf("payload %d bytes, want 11", len(payload))
	}
}

func TestIPv4CorruptionDetected(t *testing.T) {
	h := IPv4Header{TotalLen: IPv4HeaderLen, TTL: 64, Proto: ProtoTCP,
		Src: IPAddr{1, 1, 1, 1}, Dst: IPAddr{2, 2, 2, 2}}
	buf := make([]byte, IPv4HeaderLen)
	h.Marshal(buf)
	buf[8] ^= 0xff // corrupt TTL
	if _, _, err := ParseIPv4(buf); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestIPAddrConversions(t *testing.T) {
	a := IPAddr{192, 168, 1, 42}
	if IPFromUint32(a.Uint32()) != a {
		t.Error("uint32 roundtrip failed")
	}
	if a.String() != "192.168.1.42" {
		t.Errorf("String = %q", a.String())
	}
	if a.IsZero() || !(IPAddr{}).IsZero() {
		t.Error("IsZero misclassifies")
	}
}

func TestARPRoundtrip(t *testing.T) {
	h := ARPHeader{
		Op:       ARPRequest,
		SenderHW: simnet.MAC{1, 2, 3, 4, 5, 6},
		SenderIP: IPAddr{10, 0, 0, 1},
		TargetIP: IPAddr{10, 0, 0, 2},
	}
	buf := make([]byte, ARPHeaderLen)
	h.Marshal(buf)
	got, err := ParseARP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v, want %+v", got, h)
	}
}

func TestUDPRoundtrip(t *testing.T) {
	src, dst := IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}
	payload := []byte("hello, demikernel")
	h := UDPHeader{SrcPort: 1234, DstPort: 80, Length: uint16(UDPHeaderLen + len(payload))}
	buf := make([]byte, UDPHeaderLen+len(payload))
	h.Marshal(buf, src, dst, payload)
	copy(buf[UDPHeaderLen:], payload)
	got, gotPayload, err := ParseUDP(buf, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("payload corrupted")
	}
}

func TestUDPChecksumCatchesCorruption(t *testing.T) {
	src, dst := IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}
	payload := []byte("data")
	h := UDPHeader{SrcPort: 1, DstPort: 2, Length: uint16(UDPHeaderLen + len(payload))}
	buf := make([]byte, UDPHeaderLen+len(payload))
	h.Marshal(buf, src, dst, payload)
	copy(buf[UDPHeaderLen:], payload)
	buf[UDPHeaderLen] ^= 1
	if _, _, err := ParseUDP(buf, src, dst); !IsChecksumError(err) {
		t.Errorf("err = %v, want checksum error", err)
	}
}

func TestTCPRoundtripWithOptions(t *testing.T) {
	src, dst := IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}
	payload := []byte("GET / HTTP/1.1")
	h := TCPHeader{
		SrcPort: 33000, DstPort: 80,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 0xffff,
		Opt: TCPOptions{
			MSS: 1460, WScale: 7, HasWScale: true,
			TSVal: 111, TSEcr: 222, HasTimestamp: true,
		},
	}
	buf := make([]byte, h.MarshalLen()+len(payload))
	n := h.Marshal(buf, src, dst, payload)
	copy(buf[n:], payload)
	got, gotPayload, err := ParseTCP(buf, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("payload corrupted")
	}
}

func TestTCPNoOptions(t *testing.T) {
	src, dst := IPAddr{1, 1, 1, 1}, IPAddr{2, 2, 2, 2}
	h := TCPHeader{SrcPort: 5, DstPort: 6, Seq: 9, Ack: 10, Flags: TCPAck, Window: 100}
	if h.MarshalLen() != TCPHeaderLen {
		t.Fatalf("MarshalLen = %d, want %d", h.MarshalLen(), TCPHeaderLen)
	}
	buf := make([]byte, TCPHeaderLen)
	h.Marshal(buf, src, dst, nil)
	got, _, err := ParseTCP(buf, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v, want %+v", got, h)
	}
}

func TestTCPChecksumCatchesCorruption(t *testing.T) {
	src, dst := IPAddr{1, 1, 1, 1}, IPAddr{2, 2, 2, 2}
	h := TCPHeader{SrcPort: 5, DstPort: 6, Flags: TCPAck}
	payload := []byte("payload")
	buf := make([]byte, h.MarshalLen()+len(payload))
	n := h.Marshal(buf, src, dst, payload)
	copy(buf[n:], payload)
	buf[4] ^= 0x80 // flip a seq bit
	if _, _, err := ParseTCP(buf, src, dst); !IsChecksumError(err) {
		t.Errorf("err = %v, want checksum error", err)
	}
}

// Property: any TCP header with arbitrary field values survives a
// marshal/parse roundtrip with a valid checksum.
func TestTCPRoundtripProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, mss uint16, payload []byte) bool {
		src, dst := IPAddr{10, 1, 2, 3}, IPAddr{10, 4, 5, 6}
		h := TCPHeader{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags &^ 0xc0, Window: win,
			Opt: TCPOptions{MSS: mss},
		}
		buf := make([]byte, h.MarshalLen()+len(payload))
		n := h.Marshal(buf, src, dst, payload)
		copy(buf[n:], payload)
		got, gotPayload, err := ParseTCP(buf, src, dst)
		return err == nil && got == h && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: UDP roundtrip for arbitrary payloads.
func TestUDPRoundtripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		src, dst := IPAddr{172, 16, 0, 1}, IPAddr{172, 16, 0, 2}
		h := UDPHeader{SrcPort: sp, DstPort: dp, Length: uint16(UDPHeaderLen + len(payload))}
		if int(h.Length) != UDPHeaderLen+len(payload) {
			return true // length overflow: not representable, skip
		}
		buf := make([]byte, UDPHeaderLen+len(payload))
		h.Marshal(buf, src, dst, payload)
		copy(buf[UDPHeaderLen:], payload)
		got, gotPayload, err := ParseUDP(buf, src, dst)
		return err == nil && got == h && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// timestampedSegment marshals a timestamped ACK carrying a 64 B payload,
// the shape of a Catnip data segment.
func timestampedSegment() (h TCPHeader, seg, payload []byte, src, dst IPAddr) {
	src, dst = IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}
	h = TCPHeader{
		SrcPort: 33000, DstPort: 7,
		Seq: 1000, Ack: 2000,
		Flags: TCPAck | TCPPsh, Window: 0xffff,
		Opt: TCPOptions{TSVal: 111, TSEcr: 222, HasTimestamp: true},
	}
	seg = make([]byte, h.MarshalLen()+64)
	payload = seg[h.MarshalLen():]
	for i := range payload {
		payload[i] = byte(i)
	}
	h.Marshal(seg, src, dst, payload)
	return h, seg, payload, src, dst
}

// TestTCPMarshalAllocs checks the //demi:nonalloc claim on TCPHeader.Marshal
// at run time.
func TestTCPMarshalAllocs(t *testing.T) {
	h, seg, payload, src, dst := timestampedSegment()
	allocs := testing.AllocsPerRun(100, func() { h.Marshal(seg, src, dst, payload) })
	if allocs != 0 {
		t.Errorf("Marshal allocates %.1f times per call, want 0", allocs)
	}
}

// TestParseTCPAllocs checks the //demi:nonalloc claim on ParseTCP at run
// time, checksum verification included.
func TestParseTCPAllocs(t *testing.T) {
	h, seg, payload, src, dst := timestampedSegment()
	var got TCPHeader
	var gotPayload []byte
	var err error
	allocs := testing.AllocsPerRun(100, func() { got, gotPayload, err = ParseTCP(seg, src, dst) })
	if err != nil || got != h || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("ParseTCP = %+v, %d B, %v; want %+v, %d B, nil", got, len(gotPayload), err, h, len(payload))
	}
	if allocs != 0 {
		t.Errorf("ParseTCP allocates %.1f times per call, want 0", allocs)
	}
}
