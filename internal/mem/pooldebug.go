//go:build ibdebug

package mem

// Under the ibdebug build tag every pool buffer is tracked by the address
// of its first byte, so the pool can catch the three classic freelist
// misuses at the moment they happen instead of as downstream corruption:
//
//   - double Put:       returning a buffer that is already on the freelist
//   - foreign Put:      returning a buffer of a class's capacity the pool
//     never carved
//   - use after Put:    writing through a stale reference while the buffer
//     sits on the freelist (detected by poisoning freed
//     buffers and verifying the poison on recycle)
//
// Every hook sees the buffer's whole capacity, its class's: a holder of
// an n-byte buffer may write nothing past n, but a stale write anywhere in
// the class breaks the poison all the same.
//
// The release build compiles all hooks to empty functions, so the hot path
// pays nothing.

// poisonByte fills freed buffers. Any write through a stale reference
// breaks the pattern and is caught by the next Get.
const poisonByte = 0xDB

type poolState uint8

const (
	stateOut poolState = iota
	stateFree
)

// poolDebug is the per-pool tracking state armed by the ibdebug tag.
type poolDebug struct {
	owned map[*byte]poolState
}

func (p *BufPool) debugCarve(b []byte) {
	if p.dbg.owned == nil {
		p.dbg.owned = make(map[*byte]poolState)
	}
	p.dbg.owned[&b[0]] = stateOut
}

func (p *BufPool) debugGet(b []byte) {
	st, ok := p.dbg.owned[&b[0]]
	if !ok {
		panic("mem: pool freelist holds a buffer the pool never carved")
	}
	if st == stateFree {
		// Recycled from the freelist: the poison laid down by Put must
		// be intact, or someone wrote through a stale reference.
		for i, c := range b {
			if c != poisonByte {
				panic("mem: use-after-Put write detected on recycled buffer (poison broken at offset " + itoa(i) + ")")
			}
		}
		p.dbg.owned[&b[0]] = stateOut
	}
}

func (p *BufPool) debugPut(b []byte) {
	st, ok := p.dbg.owned[&b[0]]
	if !ok {
		panic("mem: foreign buffer returned to pool")
	}
	if st == stateFree {
		panic("mem: double Put of pool buffer")
	}
	for i := range b {
		b[i] = poisonByte
	}
	p.dbg.owned[&b[0]] = stateFree
}

// itoa is a tiny decimal formatter so the debug build does not pull
// strconv into the panic path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
