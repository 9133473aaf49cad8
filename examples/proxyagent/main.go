// Proxy agents (paper §2.5.1): "we hope to build a remote login
// utility similar to ssh that acts as a proxy SFS agent. That way,
// users can automatically access their files when logging in to a
// remote machine."
//
// This example plays both machines. The home workstation runs the
// user's real agent, holding her private key. She logs into a lab
// machine; the login session carries an agent-forwarding channel. The
// lab machine's agent holds NO key material — every authentication
// request travels back to the home agent, which signs it and records
// the full path of machines the request arrived through in its audit
// trail. When the session ends, nothing secret remains on the lab
// machine.
//
// Run: go run ./examples/proxyagent
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/agent"
	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/vfs"
)

func main() {
	world, err := lab.NewWorld("proxyagent")
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}

	// The file server with kaminsky's home directory.
	server, err := world.ServeFS("sfs.lcs.mit.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	if err := server.FS.WriteFile(root, "home/kaminsky/inbox", []byte("mail from home\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	id, _, _ := server.FS.Resolve(root, "home/kaminsky")
	uid := uint32(1000)
	server.FS.SetAttrs(root, id, vfs.SetAttr{UID: &uid}) //nolint:errcheck

	// HOME MACHINE: client + real agent with the key, registered at
	// the server's authserver.
	homeClient, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	homeAgent, err := world.NewUser(homeClient, server, "kaminsky", 1000, "pw")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("home agent loaded with the user's private key")

	// LAB MACHINE: its own client daemon and a keyless agent. The
	// "ssh connection" is a pipe carrying the agent-forwarding
	// channel.
	sshChannel1, sshChannel2 := net.Pipe()
	go homeAgent.ServeSigner(sshChannel2) //nolint:errcheck

	labClient, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	labAgent := agent.New("kaminsky", nil)
	labAgent.UseRemoteSigner(sshChannel1, "lab-machine")
	labClient.RegisterAgent("kaminsky", labAgent)
	fmt.Println("lab agent holds no keys; signing forwards over the login channel")

	// On the lab machine, the user's files are just there: the lab
	// client authenticates her through the proxied agent.
	data, err := labClient.ReadFile("kaminsky", server.Path.String()+"/home/kaminsky/inbox")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read from the lab machine: %s", data)

	// Writes carry her real credentials too.
	if err := labClient.WriteFile("kaminsky",
		server.Path.String()+"/home/kaminsky/from-the-lab", []byte("sent remotely\n")); err != nil {
		log.Fatal(err)
	}
	attr, _ := labClient.Stat("kaminsky", server.Path.String()+"/home/kaminsky/from-the-lab")
	fmt.Printf("file created from the lab is owned by uid %d\n", attr.UID)

	// The home agent audited every key operation, including the hop.
	for _, entry := range homeAgent.Audit() {
		fmt.Printf("audit: %s for %s seq=%d via %q\n", entry.Op, entry.Location, entry.SeqNo, entry.AuthPath)
	}

	// Session over: the forwarding channel closes, and the lab
	// machine can no longer authenticate as her.
	labAgent.ClearRemoteSigner()
	sshChannel1.Close()
	labClient2, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	labClient2.RegisterAgent("kaminsky", labAgent)
	if _, err := labClient2.ReadFile("kaminsky", server.Path.String()+"/home/kaminsky/inbox"); err != nil {
		fmt.Println("after logout, the lab machine is powerless:", err)
	} else {
		// The file is 0644 under a 0755 home dir, so anonymous
		// read still succeeds — demonstrate with the 0600 write
		// path instead.
		if err := labClient2.WriteFile("kaminsky",
			server.Path.String()+"/home/kaminsky/again", []byte("x")); err != nil {
			fmt.Println("after logout, writes as kaminsky fail:", err)
		} else {
			log.Fatal("lab machine still authenticated after logout!")
		}
	}
}
