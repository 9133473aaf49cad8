package bench

// The connection-storm figure: how fast can one SFS server establish
// sessions? Phase A reconnects with full key negotiations — every
// connection pays the Rabin decrypts, throttled by the negotiation
// pool. Phase B reconnects by session resumption (DESIGN.md §14) —
// one SHA-1 rekey per connection and zero public-key operations,
// which the figure asserts with the secure channel's Rabin-decrypt
// counter. A held-open phase measures per-session server memory from
// the heap delta across a block of live sessions, and an eksblowfish
// ablation sweeps the SRP password cost against authserver
// throughput: the work factor that makes stolen password files
// expensive to crack is paid on every password login, so it is also
// an admission-control knob.
//
// Like the recovery figure, the storm runs over raw loopback TCP with
// no netsim shaping: the quantities of interest — public-key cost,
// pool scheduling, per-session state — are all endpoint-side, and
// shaping a thousand short-lived connections would only measure the
// shaper.

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/authserv"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/lab"
	"repro/internal/secchan"
	"repro/internal/server"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
)

// LoginStats is the committed detail block of BENCH_login-storm.json.
type LoginStats struct {
	Workers      int `json:"workers"`
	FullConns    int `json:"full_conns"`
	ResumedConns int `json:"resumed_conns"`

	FullPerSec    float64 `json:"full_logins_per_sec"`
	ResumedPerSec float64 `json:"resumed_logins_per_sec"`
	// Speedup is resumed over full reconnect rate; the acceptance bar
	// for this figure is >= 5.
	Speedup float64 `json:"resume_speedup"`

	// Rabin decrypt counts observed during each measured phase: the
	// full phase costs two per connection (both ends run in-process),
	// the resumed phase must cost zero.
	RabinDecryptsFull   uint64 `json:"rabin_decrypts_full"`
	RabinDecryptsResume uint64 `json:"rabin_decrypts_resume"`

	// Per-session server memory: heap growth across HeldSessions
	// concurrently live sessions, scaled to MB per 10k sessions.
	HeldSessions     int     `json:"held_sessions"`
	MBPer10kSessions float64 `json:"mb_per_10k_sessions"`

	// Handshakes is the server master's session-establishment block
	// after the storm; Secchan the channel-layer counters.
	Handshakes server.HandshakeStats `json:"handshakes"`
	Secchan    secchan.Snapshot      `json:"secchan"`

	// Eks is the password-cost ablation: SRP fetch exchanges per
	// second at each eksblowfish work factor.
	Eks []EksPoint `json:"eks_ablation"`
}

// EksPoint is one eksblowfish work factor's measured auth throughput.
type EksPoint struct {
	Cost      uint    `json:"cost"`
	Exchanges int     `json:"exchanges"`
	PerSec    float64 `json:"auths_per_sec"`
}

// loginKeyBits is the Rabin modulus for the storm. Unlike the file
// system figures — which shrink to 768 bits because channel setup is
// a one-off there — this figure measures the public-key work itself,
// so it uses the paper's deployed key size (sfskey's default).
const loginKeyBits = 1024

// loginLocation is the storm target's Location.
const loginLocation = "storm.example.com"

// loginServer is the storm target: a lab world on raw loopback TCP
// (no traffic shaping) with an explicit admission policy and a key of
// the deployed size.
type loginServer struct {
	world *lab.World
	path  core.Path
}

func newLoginServer() (*loginServer, error) {
	world, err := lab.NewWorld("bench-login")
	if err != nil {
		return nil, err
	}
	// A deep backlog so the storm measures negotiation throughput, not
	// shed connections; the admission tests cover the fast-reject path.
	world.Server.SetHandshakePolicy(server.HandshakePolicy{
		Backlog: 4096, Timeout: 30 * time.Second,
	})
	key, err := rabin.GenerateKey(world.RNG, loginKeyBits)
	if err != nil {
		world.Close()
		return nil, err
	}
	served, err := world.ServeFSOn(server.ServedConfig{Location: loginLocation, Key: key})
	if err != nil {
		world.Close()
		return nil, err
	}
	return &loginServer{world: world, path: served.Path}, nil
}

// seedTickets performs one uncounted full handshake per worker and
// returns the minted resumption tickets, waiting a beat for the
// server's post-handshake cache inserts to land so the first measured
// resumes hit.
func (sv *loginServer) seedTickets(workers int, tempKey *rabin.PrivateKey) ([]*secchan.ResumeTicket, error) {
	tickets := make([]*secchan.ResumeTicket, workers)
	for w := 0; w < workers; w++ {
		rng := prng.NewSeeded([]byte(fmt.Sprintf("storm-seed-%d", w)))
		sec, info, err := sv.connectFull(tempKey, rng)
		if err != nil {
			return nil, err
		}
		sec.Close()
		tickets[w] = info.Ticket
	}
	time.Sleep(10 * time.Millisecond)
	return tickets, nil
}

// storm runs total reconnects across workers concurrent clients and
// returns the elapsed wall time. With tickets each worker chains
// single-use resumption tickets from its seed; with nil tickets every
// connection negotiates in full. All workers share one temporary key:
// Rabin key operations are read-only, so this only removes keygen
// noise from the measurement.
func (sv *loginServer) storm(workers, total int, tempKey *rabin.PrivateKey, tickets []*secchan.ResumeTicket) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	each := total / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := prng.NewSeeded([]byte(fmt.Sprintf("storm-%d", w)))
			var ticket *secchan.ResumeTicket
			if tickets != nil {
				ticket = tickets[w]
			}
			for i := 0; i < each; i++ {
				conn, err := sv.world.Dial(loginLocation)
				if err != nil {
					errs <- err
					return
				}
				sec, info, _, err := secchan.ClientHandshakeResume(conn, secchan.ServiceFile, sv.path, tempKey, rng, ticket)
				if err != nil {
					errs <- err
					conn.Close()
					return
				}
				if tickets != nil {
					ticket = info.Ticket
				}
				sec.Close()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, err
	}
	return elapsed, nil
}

func (sv *loginServer) connectFull(tempKey *rabin.PrivateKey, rng *prng.Generator) (*secchan.Conn, *secchan.Info, error) {
	conn, err := sv.world.Dial(loginLocation)
	if err != nil {
		return nil, nil, err
	}
	sec, info, _, err := secchan.ClientHandshake(conn, secchan.ServiceFile, sv.path, tempKey, rng)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return sec, info, nil
}

// heldSessionsMB establishes held concurrent sessions, keeps them all
// open, and reports the server-process heap growth in MB per 10k
// sessions. Client and server share the process, so the figure is an
// upper bound on the server's share (channel state dominates: two
// ARC4 key schedules plus MAC state per side per session).
func (sv *loginServer) heldSessionsMB(held int, tempKey *rabin.PrivateKey) (float64, error) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	open := make([]*secchan.Conn, 0, held)
	defer func() {
		for _, c := range open {
			c.Close()
		}
	}()
	rng := prng.NewSeeded([]byte("storm-held"))
	for i := 0; i < held; i++ {
		sec, _, err := sv.connectFull(tempKey, rng)
		if err != nil {
			return 0, err
		}
		open = append(open, sec)
	}
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc <= m0.HeapAlloc {
		return 0, nil
	}
	perSession := float64(m1.HeapAlloc-m0.HeapAlloc) / float64(held)
	return perSession * 10000 / (1 << 20), nil
}

// eksAblation measures SRP password-login throughput at each
// eksblowfish work factor. Every exchange runs the full protocol —
// client-side password hashing at the registered cost, the SRP
// exchange, private-key decryption — over an in-memory pipe with a
// fresh key-service handler (the handler, like a real connection,
// serves one SRP exchange).
func eksAblation(costs []uint, exchanges int) ([]EksPoint, error) {
	rng := prng.NewSeeded([]byte("storm-eks"))
	userKey, err := rabin.GenerateKey(rng, 768)
	if err != nil {
		return nil, err
	}
	points := make([]EksPoint, 0, len(costs))
	for _, cost := range costs {
		auth := authserv.New("/sfs/storm", rng)
		db := authserv.NewDB("local", true)
		auth.AddDB(db)
		if err := auth.Register(db, "dm", 1000, []uint32{1000}, authserv.RegisterOptions{
			Password: "storm-pw", PrivateKey: userKey, EksCost: cost,
		}); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < exchanges; i++ {
			c1, c2 := net.Pipe()
			rpc := sunrpc.NewServer()
			rpc.Register(sfsrpc.KeyProgram, sfsrpc.Version, auth.KeyServiceHandler())
			go rpc.ServeConn(c2) //nolint:errcheck
			cl := sunrpc.NewClient(c1)
			if _, err := authserv.FetchWithPassword(cl, "dm", "storm-pw", rng); err != nil {
				cl.Close()
				return nil, fmt.Errorf("bench: eks cost %d: %w", cost, err)
			}
			cl.Close()
			c2.Close()
		}
		elapsed := time.Since(start)
		// Cost and Exchanges are read back, not echoed: the work factor
		// the user record carries (which every exchange above hashed at)
		// and the exchanges the authserver saw through to a matching M1.
		rec, _ := db.ByName("dm")
		points = append(points, EksPoint{
			Cost: uint(rec.EksCost), Exchanges: int(auth.StatsSnapshot().SRPConfirms),
			PerSec: float64(exchanges) / elapsed.Seconds(),
		})
	}
	return points, nil
}

// FigLogin runs the connection-storm experiment and returns the
// figure committed as BENCH_login-storm.json.
func FigLogin(opts Options) (*Figure, error) {
	workers, full, resumed, held, exchanges := 8, 1600, 3200, 256, 20
	costs := []uint{2, 4, 6, 8}
	if opts.Quick {
		workers, full, resumed, held, exchanges = 4, 160, 320, 64, 5
		costs = []uint{2, 4}
	}
	fig := &Figure{
		ID: "Login-storm",
		Title: fmt.Sprintf("connection-storm session establishment (%d full + %d resumed reconnects, %d workers)",
			full, resumed, workers),
	}
	sv, err := newLoginServer()
	if err != nil {
		return nil, err
	}
	defer sv.world.Close()
	tempKey, err := rabin.GenerateKey(prng.NewSeeded([]byte("storm-temp")), loginKeyBits)
	if err != nil {
		return nil, err
	}

	rabin0 := secchan.RabinDecrypts()
	fullElapsed, err := sv.storm(workers, full, tempKey, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: full-handshake storm: %w", err)
	}
	rabinFull := secchan.RabinDecrypts() - rabin0

	// Resumed phase: the seeds' decrypts land before the sample, so the
	// measured window must be Rabin-free.
	tickets, err := sv.seedTickets(workers, tempKey)
	if err != nil {
		return nil, fmt.Errorf("bench: seeding tickets: %w", err)
	}
	rabin1 := secchan.RabinDecrypts()
	resumedElapsed, err := sv.storm(workers, resumed, tempKey, tickets)
	if err != nil {
		return nil, fmt.Errorf("bench: resumed storm: %w", err)
	}
	rabinResume := secchan.RabinDecrypts() - rabin1

	mbPer10k, err := sv.heldSessionsMB(held, tempKey)
	if err != nil {
		return nil, fmt.Errorf("bench: held sessions: %w", err)
	}
	eks, err := eksAblation(costs, exchanges)
	if err != nil {
		return nil, err
	}

	ls := &LoginStats{
		Workers: workers, FullConns: full, ResumedConns: resumed,
		FullPerSec:          float64(full) / fullElapsed.Seconds(),
		ResumedPerSec:       float64(resumed) / resumedElapsed.Seconds(),
		RabinDecryptsFull:   rabinFull,
		RabinDecryptsResume: rabinResume,
		HeldSessions:        held,
		MBPer10kSessions:    mbPer10k,
		Handshakes:          sv.world.Server.StatsSnapshot().Handshakes,
		Secchan:             secchan.StatsSnapshot(),
		Eks:                 eks,
	}
	ls.Speedup = ls.ResumedPerSec / ls.FullPerSec
	fig.Login = ls

	fig.Rows = append(fig.Rows,
		FigureRow{Stack: "SFS", Phase: "full reconnect", Value: ls.FullPerSec, Unit: "logins/s", RPCs: uint64(full)},
		FigureRow{Stack: "SFS", Phase: "resumed reconnect", Value: ls.ResumedPerSec, Unit: "logins/s", RPCs: uint64(resumed)},
		FigureRow{Stack: "SFS", Phase: "resume speedup", Value: ls.Speedup, Unit: "x"},
		FigureRow{Stack: "SFS", Phase: "session memory", Value: ls.MBPer10kSessions, Unit: "MB/10k"},
	)
	for _, p := range eks {
		fig.Rows = append(fig.Rows, FigureRow{
			Stack: "authserv", Phase: fmt.Sprintf("eks cost %d", p.Cost),
			Value: p.PerSec, Unit: "auth/s", RPCs: uint64(p.Exchanges),
		})
	}
	fig.render(opts.out())
	return fig, nil
}
