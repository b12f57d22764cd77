package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// The distsim wire puts every frame on a connection with exactly one
// Write: a 24-byte header (payload length uint32, seq uint64, ack
// uint64, CRC32) followed by the payload, whose first byte is the frame
// kind as a uvarint (every kind is below 128). The taps below read only
// that much of the format, to time frames from outside the program.
const (
	wireHeader  = 24
	kindWindow  = 3 // coordinator → worker: advance one window
	kindDone    = 4 // worker → coordinator: window finished
	kindUnknown = 0
)

var clockBase = time.Now()

// nowNs is monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// frameRec is one frame seen on a tapped connection.
type frameRec struct {
	kind  byte
	write bool
	start int64 // Write call start, or the Read return that completed the frame
	end   int64 // Write call return (equal to start for reads)
}

// connTap records the frames crossing one connection. Untraced, it
// keeps only window-write times and write totals, one append per
// window; traced, it parses the inbound byte stream too and keeps every
// frame. The coordinator and worker write from more than one goroutine
// (heartbeats), hence the mutex.
type connTap struct {
	mu           sync.Mutex
	trace        bool
	windowWrites []int64
	writes       int
	writeBytes   int
	frames       []frameRec
	parser       frameParser
}

func frameKind(b []byte) byte {
	if len(b) > wireHeader {
		return b[wireHeader]
	}
	return kindUnknown
}

func (t *connTap) wrote(b []byte, start, end int64) {
	kind := frameKind(b)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writes++
	t.writeBytes += len(b)
	if kind == kindWindow {
		t.windowWrites = append(t.windowWrites, start)
	}
	if t.trace {
		t.frames = append(t.frames, frameRec{kind: kind, write: true, start: start, end: end})
	}
}

func (t *connTap) read(b []byte, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parser.feed(b, func(kind byte) {
		t.frames = append(t.frames, frameRec{kind: kind, start: at, end: at})
	})
}

// times returns the start times of the frames of one kind and direction.
func (t *connTap) times(kind byte, write bool) []int64 {
	var out []int64
	for _, f := range t.frames {
		if f.kind == kind && f.write == write {
			out = append(out, f.start)
		}
	}
	return out
}

// frameParser splits an inbound byte stream into frames.
type frameParser struct {
	hdr    [wireHeader]byte
	hdrN   int
	payLen int
	payGot int
	kind   byte
}

func (p *frameParser) feed(b []byte, emit func(kind byte)) {
	for len(b) > 0 {
		if p.hdrN < wireHeader {
			n := copy(p.hdr[p.hdrN:], b)
			p.hdrN += n
			b = b[n:]
			if p.hdrN == wireHeader {
				p.payLen = int(binary.BigEndian.Uint32(p.hdr[:4]))
				p.payGot = 0
				p.kind = kindUnknown
				if p.payLen == 0 {
					emit(p.kind)
					p.hdrN = 0
				}
			}
			continue
		}
		n := min(len(b), p.payLen-p.payGot)
		if p.payGot == 0 {
			p.kind = b[0]
		}
		p.payGot += n
		b = b[n:]
		if p.payGot == p.payLen {
			emit(p.kind)
			p.hdrN = 0
		}
	}
}

type tapConn struct {
	net.Conn
	tap *connTap
}

func (c *tapConn) Write(b []byte) (int, error) {
	start := nowNs()
	n, err := c.Conn.Write(b)
	c.tap.wrote(b, start, nowNs())
	return n, err
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.tap.trace && n > 0 {
		c.tap.read(b[:n], nowNs())
	}
	return n, err
}

// tapSet owns the taps of one side of a cluster, in connection order.
type tapSet struct {
	mu    sync.Mutex
	trace bool
	taps  []*connTap
}

func (s *tapSet) wrap(c net.Conn) net.Conn {
	t := &connTap{trace: s.trace}
	s.mu.Lock()
	s.taps = append(s.taps, t)
	s.mu.Unlock()
	return &tapConn{Conn: c, tap: t}
}

func (s *tapSet) list() []*connTap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*connTap(nil), s.taps...)
}

// tapListener wraps every connection the coordinator accepts.
type tapListener struct {
	net.Listener
	set *tapSet
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.set.wrap(c), nil
}
