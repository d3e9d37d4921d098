package uarch

import "testing"

// TestPerturbedIdentity: the perturbation must rename the CPU (µop-
// description memoization is keyed by name, so a shared name would alias
// the two parameterizations) and must not touch the original.
func TestPerturbedIdentity(t *testing.T) {
	for _, cpu := range All() {
		orig := *cpu
		p := cpu.Perturbed()
		if p.Name == cpu.Name {
			t.Errorf("%s: perturbed CPU kept the original name", cpu.Name)
		}
		if *cpu != orig {
			t.Errorf("%s: Perturbed mutated the receiver", cpu.Name)
		}
		if p.L1DLatency != cpu.L1DLatency+1 {
			t.Errorf("%s: L1DLatency = %d, want %d", cpu.Name, p.L1DLatency, cpu.L1DLatency+1)
		}
		if p.IssueWidth != cpu.IssueWidth {
			t.Errorf("%s: perturbation changed IssueWidth (%d -> %d); it must stay a recalibration",
				cpu.Name, cpu.IssueWidth, p.IssueWidth)
		}
		if p.LoadPorts != cpu.LoadPorts || p.StoreAddrPorts != cpu.StoreAddrPorts {
			t.Errorf("%s: perturbation changed load/store ports", cpu.Name)
		}
		if got := p.intALUPorts.Count(); got != cpu.intALUPorts.Count()-1 {
			t.Errorf("%s: intALUPorts count = %d, want %d", cpu.Name, got, cpu.intALUPorts.Count()-1)
		}
		// Deterministic: perturbing twice gives identical parameter files.
		if q := cpu.Perturbed(); *q != *p {
			t.Errorf("%s: Perturbed is not deterministic", cpu.Name)
		}
	}
}

// TestPerturbedChangesDescriptions: an ADD µop must come out slower or
// differently ported on the perturbed file — otherwise the perturbation
// is a no-op and cross-validation against it is vacuous.
func TestPerturbedChangesDescriptions(t *testing.T) {
	cpu := Haswell()
	p := cpu.Perturbed()
	if p.fpAddLat == cpu.fpAddLat && p.intALUPorts == cpu.intALUPorts {
		t.Fatal("perturbation left both FP latency and ALU ports unchanged")
	}
	if p.div64Lat <= cpu.div64Lat {
		t.Errorf("div64Lat = %d, want > %d", p.div64Lat, cpu.div64Lat)
	}
}

func TestDropHighestPort(t *testing.T) {
	cases := []struct {
		in, want PortSet
	}{
		{Ports(0, 1, 5), Ports(0, 1)},
		{Ports(0, 1), Ports(0)},
		{Ports(3), Ports(3)}, // never emptied
		{0, 0},
	}
	for _, c := range cases {
		if got := dropHighestPort(c.in); got != c.want {
			t.Errorf("dropHighestPort(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}
