// Password authentication of servers (paper §2.4): the MIT user
// travels to a research laboratory and wants her files back home.
// She types one password. sfskey uses SRP to negotiate a strong
// session key from it — exposing nothing an eavesdropper or even the
// laboratory's own network could use for off-line guessing — then
// downloads the server's self-certifying pathname and an encrypted
// copy of her private key over that channel, decrypts the key locally,
// and hands both to her agent. No system administrators, no
// certification authorities, no thinking about public keys.
//
// Run: go run ./examples/password
package main

import (
	"fmt"
	"log"

	"repro/internal/agent"
	"repro/internal/authserv"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/lab"
	"repro/internal/secchan"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

func main() {
	world, err := lab.NewWorld("password")
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}

	// Back at MIT: a file server with the user's home directory and
	// an authserver holding her SRP verifier and encrypted private
	// key — registered once, while she was at home.
	mit, err := world.ServeFS("sfs.lcs.mit.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	userKey, err := rabin.GenerateKey(world.RNG, lab.KeyBits)
	if err != nil {
		log.Fatal(err)
	}
	const password = "red sox beat yankees"
	if err := mit.Auth.Register(mit.DB, "kaminsky", 1000, []uint32{1000}, authserv.RegisterOptions{
		Password: password, PrivateKey: userKey, EksCost: 6,
	}); err != nil {
		log.Fatal(err)
	}
	mit.FS.WriteFile(root, "users/kaminsky/thesis.txt", []byte("chapter 1: ...\n"), 0o644) //nolint:errcheck
	id, _, _ := mit.FS.Resolve(root, "users/kaminsky")
	uid := uint32(1000)
	mit.FS.SetAttrs(root, id, vfs.SetAttr{UID: &uid}) //nolint:errcheck

	// At the laboratory: a client that knows only how to dial
	// locations. The user carries nothing but the password.
	fmt.Println("at the lab, running: sfskey fetch -user kaminsky sfs.lcs.mit.example.com")
	conn, err := world.Dial(mit.Location)
	if err != nil {
		log.Fatal(err)
	}
	rng := prng.NewSeeded([]byte("laptop"))
	tempKey, err := rabin.GenerateKey(rng, lab.KeyBits)
	if err != nil {
		log.Fatal(err)
	}
	// sfskey connects to the authserver service. NOTE: at this
	// point the user cannot yet certify the server — SRP both
	// authenticates the server to her and her to the server.
	sec, _, _, err := secchan.ClientHandshake(conn, secchan.ServiceAuth, mit.Path, tempKey, rng)
	if err != nil {
		log.Fatal(err)
	}
	rpc := sunrpc.NewClient(sec)
	res, err := authserv.FetchWithPassword(rpc, "kaminsky", password, rng)
	rpc.Close() //nolint:errcheck
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SRP exchange complete; downloaded:", res.SelfPath)
	if res.PrivateKey == nil {
		log.Fatal("no private key came back")
	}
	fmt.Println("private key decrypted locally (the server never sees the password)")

	// The agent gets the key and a symlink; transparently, the user
	// is authenticated on first access.
	cl, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	a := agent.New("kaminsky", rng)
	a.AddKey(res.PrivateKey)
	cl.RegisterAgent("kaminsky", a)
	a.Symlink("mit", res.SelfPath)

	data, err := cl.ReadFile("kaminsky", "/sfs/mit/users/kaminsky/thesis.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reading home files through /sfs/mit: %s", data)

	// Wrong passwords fail without leaking guessing material.
	conn2, err := world.Dial(mit.Location)
	if err != nil {
		log.Fatal(err)
	}
	sec2, _, _, err := secchan.ClientHandshake(conn2, secchan.ServiceAuth, mit.Path, tempKey, rng)
	if err != nil {
		log.Fatal(err)
	}
	rpc2 := sunrpc.NewClient(sec2)
	defer rpc2.Close()
	if _, err := authserv.FetchWithPassword(rpc2, "kaminsky", "yankees beat red sox", rng); err == nil {
		log.Fatal("wrong password accepted!")
	}
	fmt.Println("wrong password correctly rejected (on-line guess, loggable by the server)")
	_ = core.Path{}
}
