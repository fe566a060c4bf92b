package ibflow

import (
	"testing"
)

func TestClusterQuickstart(t *testing.T) {
	cl := NewCluster(2, Dynamic(1, 100))
	err := cl.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			buf := make([]byte, 8)
			st := c.Recv(0, 7, buf)
			if st.Len != 5 || string(buf[:5]) != "hello" {
				c.Abort("bad message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Time() <= 0 {
		t.Error("no virtual time elapsed")
	}
	if cl.Size() != 2 {
		t.Error("size wrong")
	}
	if cl.Stats().MsgsSent == 0 {
		t.Error("no messages counted")
	}
	if cl.RankStats(0).Rank != 0 {
		t.Error("rank stats wrong")
	}
}

func TestSchemeConstructors(t *testing.T) {
	if Hardware(5).Prepost != 5 || Static(7).Prepost != 7 {
		t.Error("prepost not carried")
	}
	d := Dynamic(1, 64)
	if d.Max != 64 || d.Validate() != nil {
		t.Errorf("dynamic = %+v", d)
	}
}

func TestOptionTweaks(t *testing.T) {
	cl := NewCluster(2, Static(4), func(o *Options) {
		o.Chan.OnDemand = true
	})
	if err := cl.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []byte("x"))
		} else {
			c.Recv(0, 0, make([]byte, 1))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Conns != 2 {
		t.Errorf("on-demand conns = %d, want 2 ends", cl.Stats().Conns)
	}
}

func TestPublicMicroBenchmarks(t *testing.T) {
	if lat := Latency(Static(100), 4, 20); lat < 3 || lat > 15 {
		t.Errorf("latency = %v", lat)
	}
	if bw := Bandwidth(Dynamic(10, 100), 32768, 8, 2, false); bw < 300 {
		t.Errorf("bandwidth = %v", bw)
	}
}

func TestPublicRunNAS(t *testing.T) {
	res, err := RunNAS("MG", ClassS, 4, Hardware(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Errorf("MG failed verification: %v", res.VerifyErrs)
	}
	apps := NASApps()
	if len(apps) != 7 || apps[0] != "IS" || apps[6] != "SP" {
		t.Errorf("NASApps = %v", apps)
	}
}

func TestTraceFacade(t *testing.T) {
	buf := NewTrace(256)
	cl := NewCluster(2, Static(4), func(o *Options) {
		o.IB.Tracer = buf
	})
	if err := cl.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []byte("traced"))
		} else {
			c.Recv(0, 0, make([]byte, 8))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Total() == 0 {
		t.Error("no events traced through the facade")
	}
}

func TestSplitThroughFacade(t *testing.T) {
	cl := NewCluster(4, Dynamic(1, 32))
	if err := cl.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != 2 {
			c.Abort("split size wrong")
		}
		peer := 1 - sub.Rank()
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		sub.Sendrecv(peer, 0, out, peer, 0, in)
	}); err != nil {
		t.Fatal(err)
	}
}
