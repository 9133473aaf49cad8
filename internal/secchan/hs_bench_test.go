package secchan

// Handshake-path benchmarks: the per-connection setup cost a
// connection storm multiplies. BenchmarkHandshake is the full key
// negotiation (two Rabin decrypts per connection, both ends
// in-process); BenchmarkResume is the resumption rekey — no
// public-key work, so the gap between the two is the storm capacity
// resumption buys. Both report allocations so the pooled
// writeMsg/readMsg scratch is tracked like the seal path's.

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/prng"
)

func BenchmarkHandshake(b *testing.B) {
	sk, tk, _ := testKeys(b)
	path := core.MakePath("server.example.com", sk.PublicKey.Bytes())
	srng := prng.NewSeeded([]byte("bench-hs-server"))
	crng := prng.NewSeeded([]byte("bench-hs-client"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c1, c2 := net.Pipe()
		done := make(chan error, 1)
		go func() {
			req, err := ReadConnect(c2)
			if err != nil {
				done <- err
				return
			}
			_, _, err = ServerHandshakeSession(c2, req, sk, srng, nil)
			done <- err
		}()
		if _, _, _, err := ClientHandshake(c1, ServiceFile, path, tk, crng); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		c1.Close()
		c2.Close()
	}
}

func BenchmarkResume(b *testing.B) {
	sk, tk, _ := testKeys(b)
	path := core.MakePath("server.example.com", sk.PublicKey.Bytes())
	cache := NewResumeCache(1<<20, time.Hour)
	srng := prng.NewSeeded([]byte("bench-rs-server"))
	crng := prng.NewSeeded([]byte("bench-rs-client"))

	// Seed: one full handshake mints the first ticket. Wait for the
	// server side to return before resuming — the cache insert happens
	// after its final write, so racing ahead would see a miss.
	c1, c2 := net.Pipe()
	sdone := make(chan error, 1)
	go func() {
		req, err := ReadConnect(c2)
		if err != nil {
			sdone <- err
			return
		}
		_, _, err = ServerHandshakeSession(c2, req, sk, srng, cache)
		sdone <- err
	}()
	_, info, _, err := ClientHandshake(c1, ServiceFile, path, tk, crng)
	if err != nil {
		b.Fatal(err)
	}
	if err := <-sdone; err != nil {
		b.Fatal(err)
	}
	c1.Close()
	c2.Close()
	ticket := info.Ticket

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, r2 := net.Pipe()
		done := make(chan error, 1)
		go func() {
			hello, err := ReadHello(r2)
			if err != nil {
				done <- err
				return
			}
			_, _, _, err = AcceptResume(r2, hello.Resume, cache, srng)
			done <- err
		}()
		_, ninfo, _, err := ClientHandshakeResume(r1, ServiceFile, path, tk, crng, ticket)
		if err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		// Tickets chain: each resumption mints the next one.
		ticket = ninfo.Ticket
		r1.Close()
		r2.Close()
	}
}
