package collector

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello, fleet")
	if err := writeFrame(&buf, frameData, 42, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameEOF, 99, nil); err != nil {
		t.Fatal(err)
	}
	flags, off, got, err := readFrame(&buf, DefaultMaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flags != frameData || off != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("data frame: flags=%d off=%d payload=%q", flags, off, got)
	}
	flags, off, got, err = readFrame(&buf, DefaultMaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flags != frameEOF || off != 99 || len(got) != 0 {
		t.Fatalf("EOF frame: flags=%d off=%d payload=%q", flags, off, got)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{[]byte("ten bytes!"), []byte("four"), []byte("twenty bytes, longer")}
	for i, p := range frames {
		if err := writeFrame(&buf, frameData, uint64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	var frameBuf []byte
	var first []byte
	for i, want := range frames {
		_, off, got, err := readFrame(&buf, DefaultMaxFrame, frameBuf)
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: off=%d payload=%q", i, off, got)
		}
		switch i {
		case 0:
			first = got
		case 1:
			if &got[0] != &first[0] {
				t.Error("a payload that fits was not read into the caller's buffer")
			}
		}
		frameBuf = got
	}
}

func TestFrameOversizedRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameData, 0, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readFrame(&buf, 1024, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestHelloLineBounded(t *testing.T) {
	long := strings.Repeat("x", maxHelloLine*2)
	r := bufio.NewReaderSize(strings.NewReader(`{"producer":"`+long+"\"}\n"), maxHelloLine)
	var h Hello
	if err := readJSONLine(r, &h); err == nil {
		t.Fatal("oversized hello line accepted")
	}
}

func TestHelloRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	in := Hello{V: ProtocolVersion, Producer: "web-07", Module: "apache-1", Resume: true}
	if err := writeJSONLine(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Hello
	if err := readJSONLine(bufio.NewReader(&buf), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip: got %+v, want %+v", out, in)
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"web-07":      "web-07",
		"a/b\\c d":    "a_b_c_d",
		"..":          "..", // stays inside OutDir: no separators survive
		"":            "producer",
		"héllo:world": "h_llo_world",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOpenSessionRejections(t *testing.T) {
	srv, err := New(Options{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, reply := srv.openSession(nil, Hello{V: 99, Producer: "p"}); reply.OK {
		t.Fatal("version 99 accepted")
	}
	if _, _, reply := srv.openSession(nil, Hello{V: ProtocolVersion}); reply.OK {
		t.Fatal("empty producer accepted")
	}
	if _, _, reply := srv.openSession(nil, Hello{V: ProtocolVersion, Producer: "a"}); !reply.OK {
		t.Fatalf("first producer rejected: %s", reply.Err)
	}
	if _, _, reply := srv.openSession(nil, Hello{V: ProtocolVersion, Producer: "b"}); reply.OK {
		t.Fatal("second producer accepted past MaxSessions=1")
	}
	// The same producer reattaching is a resume, not a new session.
	if _, _, reply := srv.openSession(nil, Hello{V: ProtocolVersion, Producer: "a", Resume: true}); !reply.OK {
		t.Fatalf("resume rejected: %s", reply.Err)
	}
}
