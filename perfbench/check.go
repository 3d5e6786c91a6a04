package main

// The checkers compare each output the program produces with a
// computation made independently of the code path under test: a serial
// fit, the generator's ground truth, the scalar linear-scan assignment
// oracle, or a batch fit over exactly the records streamed. The
// self-test hands each of them a deliberately wrong output.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"pmafia/internal/datagen"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
)

// fitImage is the comparable form of a fit: the model exactly as
// modelio encodes it (record count, grid, level counts, clusters) with
// the wall-clock timings zeroed, plus the per-level counts on their own
// for a readable message.
type fitImage struct {
	model  []byte
	levels [][3]int // K, Ncdu, Ndu
}

func imageOf(res *mafia.Result) (*fitImage, error) {
	untimed := *res
	untimed.Seconds = 0
	untimed.Levels = slices.Clone(res.Levels)
	im := &fitImage{}
	for i, l := range untimed.Levels {
		untimed.Levels[i].Seconds, untimed.Levels[i].PopulateSeconds = 0, 0
		im.levels = append(im.levels, [3]int{l.K, l.Ncdu, l.Ndu})
	}
	var buf bytes.Buffer
	if err := modelio.Write(&buf, &untimed); err != nil {
		return nil, err
	}
	im.model = buf.Bytes()
	return im, nil
}

// checkFit reports how got differs from the reference fit.
func checkFit(ref *fitImage, got *mafia.Result) error {
	im, err := imageOf(got)
	if err != nil {
		return err
	}
	if !slices.Equal(im.levels, ref.levels) {
		return fmt.Errorf("level counts %v, reference %v", im.levels, ref.levels)
	}
	if !bytes.Equal(im.model, ref.model) {
		return fmt.Errorf("model (%d clusters) differs from the reference fit", len(got.Clusters))
	}
	return nil
}

// checkTruth reports a generated cluster whose subspace no reported
// cluster has.
func checkTruth(truth *datagen.Truth, got *mafia.Result) error {
	for ti, tc := range truth.Clusters {
		found := false
		for _, c := range got.Clusters {
			if len(c.Dims) != len(tc.Dims) {
				continue
			}
			same := true
			for i, d := range c.Dims {
				if int(d) != tc.Dims[i] {
					same = false
					break
				}
			}
			if same {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("generated cluster %d (subspace %v) not recovered", ti, tc.Dims)
		}
	}
	return nil
}

// oracleLabels labels every record with the scalar linear-scan oracle.
func oracleLabels(res *mafia.Result, vals []float64, dims int) []int32 {
	out := make([]int32, len(vals)/dims)
	for i := range out {
		out[i] = int32(res.AssignRecord(vals[i*dims : (i+1)*dims]))
	}
	return out
}

// checkFrameLabels compares a framed /assign reply (little-endian
// int32 labels) with the oracle's labels.
func checkFrameLabels(want []int32, body []byte) error {
	if len(body) != 4*len(want) {
		return fmt.Errorf("reply of %d bytes for %d records", len(body), len(want))
	}
	for i, w := range want {
		if got := int32(binary.LittleEndian.Uint32(body[4*i:])); got != w {
			return fmt.Errorf("record %d labelled %d, oracle %d", i, got, w)
		}
	}
	return nil
}

// matchGeneration returns the index of the first oracle labelling equal
// to labels, or -1 when none is.
func matchGeneration(labels []int32, oracles [][]int32) int {
	for g, o := range oracles {
		if slices.Equal(labels, o) {
			return g
		}
	}
	return -1
}

// checkGenerations reports a refit sequence whose generations do not
// rise by exactly one from 1.
func checkGenerations(gens []uint64) error {
	for i, g := range gens {
		if g != uint64(i+1) {
			return fmt.Errorf("refit %d wrote generation %d, want %d", i+1, g, i+1)
		}
	}
	return nil
}
