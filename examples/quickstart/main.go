// Quickstart: bring up a complete SFS deployment in one process —
// server master, authserver, client daemon, and a user agent — and
// access files through a self-certifying pathname.
//
// The flow mirrors the paper's §2.2: the server's pathname
// /sfs/Location:HostID is all a client ever needs; the HostID is a
// hash of the server's public key, so connecting to the right key is
// guaranteed by the name itself, with no key management inside the
// file system.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/vfs"
)

func main() {
	// A world is a server master listening on loopback TCP.
	world, err := lab.NewWorld("quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	// Serve a file system: this mints a key pair and registers the
	// (Location, key) pair with the master. Nobody was asked for
	// permission — anyone with a domain name can create a server.
	served, err := world.ServeFS("files.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("self-certifying pathname:", served.Path.String())

	// Put some content on the server's substrate file system, plus
	// a home directory owned by alice.
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}
	if err := served.FS.WriteFile(root, "pub/hello.txt", []byte("hello over a secure channel\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	homeID, err := served.FS.MkdirAll(root, "home/alice", 0o755)
	if err != nil {
		log.Fatal(err)
	}
	aliceUID := uint32(1000)
	if _, err := served.FS.SetAttrs(root, homeID, vfs.SetAttr{UID: &aliceUID}); err != nil {
		log.Fatal(err)
	}

	// A client daemon plus a user with a key pair registered at the
	// server's authserver.
	cl, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := world.NewUser(cl, served, "alice", 1000, "a long password"); err != nil {
		log.Fatal(err)
	}

	// Access by self-certifying pathname: the client dials the
	// location, checks the server's key against the HostID in the
	// name, negotiates session keys with forward secrecy, logs
	// alice in through her agent, and relays the reads.
	data, err := cl.ReadFile("alice", served.Path.String()+"/pub/hello.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read: %s", data)

	// Writes carry alice's credentials, assigned by the authserver.
	home := served.Path.String() + "/home/alice/from-alice.txt"
	if err := cl.WriteFile("alice", home, []byte("written by alice\n")); err != nil {
		log.Fatal(err)
	}
	attr, err := cl.Stat("alice", home)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s (owner uid %d, %d bytes)\n", home, attr.UID, attr.Size)

	// pwd inside SFS returns the self-certifying pathname — the
	// basis of secure bookmarks.
	pwd, err := cl.SelfPath("alice", served.Path.String()+"/pub")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pwd:", pwd)
}
