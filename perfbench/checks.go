package main

// Output checks built apart from the program: an independent Game of Life
// stepper, a pixel checksum, and the stable-state test of the sandpiles.
// None of them calls into the kernels; they only read images the program
// produced.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"easypap/internal/img2d"
)

// pixelChecksum is the hex SHA-256 of an image's pixels, little-endian —
// the same definition as core.Result.Checksum, computed here from the
// pixels a client actually received.
func pixelChecksum(im *img2d.Image) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range im.Pixels() {
		binary.LittleEndian.PutUint32(buf[:], p)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lifeBoard is a Game of Life board decoded from an image: yellow cells
// are alive, black cells dead.
type lifeBoard struct {
	dim   int
	cells []uint8
}

// decodeLife reads a life image; any pixel other than yellow or black is
// an error (the program painted something that is not a board).
func decodeLife(im *img2d.Image) (*lifeBoard, error) {
	b := &lifeBoard{dim: im.Dim(), cells: make([]uint8, im.Len())}
	for i, p := range im.Pixels() {
		switch p {
		case img2d.Yellow:
			b.cells[i] = 1
		case img2d.Black:
		default:
			return nil, fmt.Errorf("pixel %d is %#08x, neither alive nor dead", i, p)
		}
	}
	return b, nil
}

// step advances the board n generations under B3/S23 with dead cells
// beyond the border. It works on a copy padded with one dead cell on
// every side, so the neighbour sum needs no bounds tests.
func (b *lifeBoard) step(n int) {
	d, w := b.dim, b.dim+2
	cur := make([]uint8, w*w)
	next := make([]uint8, w*w)
	for y := 0; y < d; y++ {
		copy(cur[(y+1)*w+1:(y+1)*w+1+d], b.cells[y*d:(y+1)*d])
	}
	for ; n > 0; n-- {
		for y := 1; y <= d; y++ {
			up, mid, down := cur[(y-1)*w:y*w], cur[y*w:(y+1)*w], cur[(y+1)*w:(y+2)*w]
			out := next[y*w : (y+1)*w]
			for x := 1; x <= d; x++ {
				c := up[x-1] + up[x] + up[x+1] + mid[x-1] + mid[x+1] + down[x-1] + down[x] + down[x+1]
				if c == 3 || (c == 2 && mid[x] == 1) {
					out[x] = 1
				} else {
					out[x] = 0
				}
			}
		}
		cur, next = next, cur
	}
	for y := 0; y < d; y++ {
		copy(b.cells[y*d:(y+1)*d], cur[(y+1)*w+1:(y+1)*w+1+d])
	}
}

// image paints the board back as the program does (yellow on black).
func (b *lifeBoard) image() *img2d.Image {
	im := img2d.New(b.dim)
	px := im.Pixels()
	for i, c := range b.cells {
		if c == 1 {
			px[i] = img2d.Yellow
		} else {
			px[i] = img2d.Black
		}
	}
	return im
}

// lifeExpected decodes the board at iteration k, steps it n times and
// returns the checksum the image at iteration k+n must have.
func lifeExpected(atK *img2d.Image, n int) (string, error) {
	b, err := decodeLife(atK)
	if err != nil {
		return "", err
	}
	b.step(n)
	return pixelChecksum(b.image()), nil
}

// checkStable verifies a sandpile image shows a stable board: no cell
// inside the one-cell sink border holds 4 grains or more, which the
// kernels paint red. The border is where grains leave the pile and never
// topples, so it is not part of the stability condition.
func checkStable(im *img2d.Image) error {
	d := im.Dim()
	for y := 1; y < d-1; y++ {
		for x := 1; x < d-1; x++ {
			if im.Get(y, x) == img2d.Red {
				return fmt.Errorf("cell (%d,%d) still holds 4 grains or more", y, x)
			}
		}
	}
	return nil
}
