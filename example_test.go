package halfback_test

import (
	"fmt"
	"time"

	"halfback"
)

// Download the same 100 KB object with every scheme over the same lossy
// wide-area path and compare completion times: the repository's thesis
// in a dozen lines.
func ExampleFetch() {
	path := halfback.PathConfig{
		RateBps:  15_000_000,            // 15 Mbit/s bottleneck
		RTT:      60 * time.Millisecond, // the paper's Emulab RTT
		LossProb: 0.01,                  // 1% random loss each way
		Seed:     5,                     // a draw where the tail of the flow is lost
	}

	fmt.Println("100 KB download, 15 Mbps / 60 ms path with 1% loss:")
	fmt.Printf("%-18s %10s %8s %8s %9s\n", "scheme", "fct", "timeouts", "retx", "proactive")
	for _, scheme := range []string{
		halfback.Halfback, halfback.JumpStart, halfback.TCP10,
		halfback.TCPCache, halfback.Reactive, halfback.TCP,
		halfback.Proactive, halfback.PCP,
	} {
		st, err := halfback.Fetch(scheme, 100_000, path)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-18s %9.1fms %8d %8d %9d\n",
			scheme, st.FCT().Seconds()*1000, st.Timeouts, st.NormalRetx, st.ProactiveRetx)
	}
	fmt.Println("\nHalfback's proactive column is the ~50% ROPR budget that buys")
	fmt.Println("its timeout-free recovery; JumpStart and TCP pay for tail loss")
	fmt.Println("with 1s retransmission timeouts instead.")
	// Output:
	// 100 KB download, 15 Mbps / 60 ms path with 1% loss:
	// scheme                    fct timeouts     retx proactive
	// Halfback               151.3ms        0        0        34
	// JumpStart             1209.6ms        1        1         0
	// TCP-10                1302.5ms        1        1         0
	// TCP-Cache             1459.4ms        1        1         0
	// Reactive               591.4ms        0        1         0
	// TCP                   1459.4ms        1        1         0
	// Proactive              589.8ms        0        0        69
	// PCP                    275.5ms        0        1         0
	//
	// Halfback's proactive column is the ~50% ROPR budget that buys
	// its timeout-free recovery; JumpStart and TCP pay for tail loss
	// with 1s retransmission timeouts instead.
}

// The paper's Fig. 3 on your terminal: a ten-segment Halfback flow whose
// "packet 9" (segment 8) loses its first copy. The wire trace shows the
// Pacing phase (d0…d9), the ROPR phase clocking reverse-order proactive
// copies (d9+, d8+, …) off the arriving ACKs, and the lost packet
// recovered ~0.9 RTT before the sender could even have detected the
// loss. The same scenario is then run with TCP, which waits out a full
// retransmission timeout.
func ExampleFetchTrace() {
	cfg := halfback.PathConfig{DropSeqs: []int32{8}}
	bytes := 14600 // exactly ten 1460-byte segments

	st, tr, err := halfback.FetchTrace(halfback.Halfback, bytes, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("=== Halfback: 10-segment flow, packet 9 lost once (the paper's Fig. 3) ===")
	fmt.Print(tr.Sequence)
	fmt.Printf("\nHalfback: FCT=%v, timeouts=%d, proactive copies=%d\n",
		st.FCT(), st.Timeouts, tr.ProactiveSent)

	tcp, _, err := halfback.FetchTrace(halfback.TCP, bytes, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("TCP, same scenario: FCT=%v, timeouts=%d\n", tcp.FCT(), tcp.Timeouts)
	fmt.Printf("\nROPR recovered the loss %v sooner than TCP's timeout-driven recovery.\n",
		tcp.FCT()-st.FCT())
	// Output:
	// === Halfback: 10-segment flow, packet 9 lost once (the paper's Fig. 3) ===
	//         time  event  packet
	// ------------  -----  ------
	//      0.000ms  send   SYN
	//     30.021ms  recv   SYN
	//     30.021ms  send   SYNACK
	//     60.043ms  recv   SYNACK
	//     60.043ms  send   d0
	//     66.047ms  send   d1
	//     72.051ms  send   d2
	//     78.055ms  send   d3
	//     84.060ms  send   d4
	//     90.064ms  send   d5
	//     90.843ms  recv   d0
	//     90.843ms  send   a0/c1
	//     96.068ms  send   d6
	//     96.847ms  recv   d1
	//     96.847ms  send   a1/c2
	//    102.073ms  send   d7
	//    102.851ms  recv   d2
	//    102.851ms  send   a2/c3
	//    108.077ms  send   d8
	//    108.855ms  recv   d3
	//    108.855ms  send   a3/c4
	//    114.081ms  send   d9
	//    114.860ms  recv   d4
	//    114.860ms  send   a4/c5
	//    120.864ms  recv   d5
	//    120.864ms  send   a5/c6
	//    120.864ms  recv   a0/c1
	//    120.864ms  send   d9+
	//    126.868ms  recv   d6
	//    126.868ms  send   a6/c7
	//    126.868ms  recv   a1/c2
	//    126.868ms  send   d8+
	//    132.873ms  recv   d7
	//    132.873ms  send   a7/c8
	//    132.873ms  recv   a2/c3
	//    132.873ms  send   d7+
	//    138.877ms  recv   d8
	//    138.877ms  recv   a3/c4
	//    138.877ms  send   d6+
	//    144.881ms  recv   d9
	//    144.881ms  send   a9/c8
	//    144.881ms  recv   a4/c5
	//    144.881ms  send   d5+
	//    150.885ms  recv   a5/c6
	//    151.664ms  recv   d9+
	//    151.664ms  send   a9/c8
	//    156.890ms  recv   a6/c7
	//    157.668ms  recv   d8+
	//    157.668ms  send   a8/c10
	//    162.894ms  recv   a7/c8
	//    163.673ms  recv   d7+
	//    163.673ms  send   a7/c10
	//    169.677ms  recv   d6+
	//    169.677ms  send   a6/c10
	//    174.902ms  recv   a9/c8
	//    175.681ms  recv   d5+
	//    175.681ms  send   a5/c10
	//    181.685ms  recv   a9/c8
	//    187.690ms  recv   a8/c10
	//
	// Halfback: FCT=157.668265ms, timeouts=0, proactive copies=5
	// TCP, same scenario: FCT=1.274106665s, timeouts=1
	//
	// ROPR recovered the loss 1.1164384s sooner than TCP's timeout-driven recovery.
}
