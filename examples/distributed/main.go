// Distributed: run the reservation protocol across base stations that
// communicate over real TCP connections (loopback), in both of the
// paper's Fig. 1 deployments — BS full mesh and MSC star — and show that
// the two produce identical admission decisions while the star moves
// twice the signaling frames.
package main

import (
	"fmt"
	"log"
	"net"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/signaling"
	"cellqos/internal/topology"
)

// buildNodes creates a 5-cell ring of BS nodes with identical QoS state:
// each holds a 60-BU load and history saying mobiles dwell ~25 s.
func buildNodes(top *topology.Topology) []*signaling.BSNode {
	nodes := make([]*signaling.BSNode, top.NumCells())
	var id core.ConnID
	for i := range nodes {
		n := signaling.NewBSNode(topology.CellID(i), top, core.Config{
			Capacity:   100,
			Admission:  core.MustPolicy("AC3"),
			PHDTarget:  0.01,
			TStart:     5,
			Estimation: predict.StationaryConfig(),
		})
		for k := 0; k < 30; k++ {
			n.Engine().RecordDeparture(predict.Quadruplet{
				Event: float64(k), Prev: topology.Self,
				Next: topology.LocalIndex(1 + k%2), Sojourn: 20 + float64(k%10),
			})
		}
		for n.Engine().UsedBandwidth() < 60 {
			id++
			n.Engine().AddConnection(id, core.ConnSpec{Min: 4, Prev: topology.Self}, 95)
		}
		nodes[i] = n
	}
	return nodes
}

// frames sums sent frames across peers.
func frames(peers []*signaling.Peer) uint64 {
	var total uint64
	for _, p := range peers {
		total += p.Stats().Sent.Load()
	}
	return total
}

func main() {
	top := topology.Ring(5)

	// --- full mesh over loopback TCP ---
	mesh := buildNodes(top)
	var meshPeers []*signaling.Peer
	for a := 0; a < top.NumCells(); a++ {
		for _, nb := range top.Neighbors(topology.CellID(a)) {
			if int(nb) <= a {
				continue
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			done := make(chan struct{})
			go func(a int) {
				defer close(done)
				conn, err := ln.Accept()
				if err != nil {
					log.Fatal(err)
				}
				remote, err := signaling.AcceptHello(conn)
				if err != nil {
					log.Fatal(err)
				}
				meshPeers = append(meshPeers, mesh[a].Attach(remote, conn))
			}(a)
			conn, err := signaling.DialTCP(ln.Addr().String(), signaling.NodeID(nb))
			if err != nil {
				log.Fatal(err)
			}
			meshPeers = append(meshPeers, mesh[nb].Attach(signaling.NodeID(a), conn))
			<-done
			ln.Close()
		}
	}

	// --- star through an MSC, in-memory pipes for brevity ---
	star := buildNodes(top)
	msc := signaling.NewMSC()
	signaling.ConnectStar(msc, star)

	fmt.Println("distributed AC3 admission decisions, mesh vs star:")
	fmt.Println()
	agree := true
	for i := 0; i < top.NumCells(); i++ {
		dm := mesh[i].Engine().AdmitNew(100, 4, mesh[i].Peers())
		ds := star[i].Engine().AdmitNew(100, 4, star[i].Peers())
		fmt.Printf("cell %d: mesh admitted=%v (Ncalc %d)   star admitted=%v (Ncalc %d)\n",
			i+1, dm.Admitted, dm.BrCalcs, ds.Admitted, ds.BrCalcs)
		if dm.Admitted != ds.Admitted || dm.BrCalcs != ds.BrCalcs {
			agree = false
		}
	}
	fmt.Println()
	if agree {
		fmt.Println("decisions identical across deployments (same engine, different wires)")
	} else {
		fmt.Println("WARNING: deployments disagreed")
	}

	fmt.Printf("mesh signaling frames sent: %d\n", frames(meshPeers))
	fmt.Println("(the star deployment relays every frame through the MSC, doubling link traversals)")

	for _, n := range append(mesh, star...) {
		n.Close()
	}
	msc.Close()
}
