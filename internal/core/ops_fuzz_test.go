package core

import (
	"testing"
	"time"
)

// FuzzCompactSystemOps drives a TestConfig system (a quarter of it
// droppers, so sends run diagnosis) through the operation sequence the
// input spells, one byte per operation, and checks CheckInvariants after
// every one. The low three bits pick the operation; the rest is its
// argument:
//
//	0 join at end host arg     3 send from a to b 1+arg%4 times
//	1 fail member arg          4 start probing (once)
//	2 send from a to b         5 advance 10·(1+arg) seconds
//
// where a and b are the current members arg and arg+size/2 apart. The
// fuzzer shrinks a failing input to the shortest sequence that breaks
// a rule.
func FuzzCompactSystemOps(f *testing.F) {
	f.Add([]byte{4, 5, 2, 0x12, 1, 0x0a, 3, 5, 0x21, 2})
	f.Add([]byte{1, 9, 17, 25, 0, 8, 4, 0x3d, 2, 0x1a, 3, 0x0b, 1, 0x55})
	f.Add([]byte("join fail send probe advance"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxOps, minSize = 32, 8
		cs := buildTestCompactSystem(t, func(c *SystemConfig) { c.MaliciousFraction = 0.25 })
		hosts := cs.Topo.EndHosts()
		for step, b := range ops[:min(len(ops), maxOps)] {
			arg := int(b >> 3)
			members := cs.AliveIDs()
			src := members[arg%len(members)]
			dst := members[(arg+len(members)/2)%len(members)]
			var err error
			switch b & 7 {
			case 0:
				_, err = cs.JoinNode(hosts[arg%len(hosts)])
			case 1:
				if cs.Size() > minSize {
					err = cs.FailNode(src)
				}
			case 2:
				_, err = cs.SendMessage(src, dst)
			case 3:
				for range 1 + arg%4 {
					if _, err = cs.SendMessage(src, dst); err != nil {
						break
					}
				}
			case 4:
				if !cs.probing {
					err = cs.StartProbing()
				}
			default:
				cs.Run(time.Duration(1+arg) * 10 * time.Second)
			}
			if err != nil {
				t.Fatalf("op %d (%#x): %v", step, b, err)
			}
			if err := cs.CheckInvariants(); err != nil {
				t.Fatalf("after op %d (%#x): %v", step, b, err)
			}
		}
	})
}
