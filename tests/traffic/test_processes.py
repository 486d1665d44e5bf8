"""Tests for arrival processes and packet-size distributions."""

from itertools import islice

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.traffic import (
    PoissonArrivals,
    DeterministicArrivals,
    OnOffArrivals,
    ExponentialPacketSize,
    ConstantPacketSize,
    make_arrivals,
)


def mean_rate_of(process, n=20_000) -> float:
    gaps = list(islice(process.interarrivals(), n))
    return n / sum(gaps)


class TestPoisson:
    def test_long_run_rate(self):
        assert mean_rate_of(PoissonArrivals(50.0, seed=0)) == pytest.approx(50.0, rel=0.05)

    def test_exponential_gaps_cv_near_one(self):
        gaps = np.array(list(islice(PoissonArrivals(10.0, seed=1).interarrivals(), 20_000)))
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_rate_rejected(self):
        with pytest.raises(TrafficError):
            PoissonArrivals(0.0)

    def test_deterministic_under_seed(self):
        a = list(islice(PoissonArrivals(5.0, seed=3).interarrivals(), 10))
        b = list(islice(PoissonArrivals(5.0, seed=3).interarrivals(), 10))
        assert a == b


class TestBlockDraws:
    """The Poisson and exponential-size streams draw their values in blocks.
    That is only output-neutral because numpy's vector ``exponential``
    yields the same sequence as repeated scalar calls; a numpy release that
    breaks this must fail here, not in the golden dataset digests."""

    N = 1_000  # spans many block boundaries

    def test_poisson_equals_scalar_draws(self):
        rate = 37.5
        stream = list(islice(PoissonArrivals(rate, seed=11).interarrivals(), self.N))
        rng = np.random.default_rng(11)
        assert stream == [float(rng.exponential(1.0 / rate)) for _ in range(self.N)]

    def test_packet_sizes_equal_scalar_draws(self):
        # A small mean puts many raw draws below the 1-bit floor.
        for mean in (1_000.0, 2.0):
            sizer = ExponentialPacketSize(mean, seed=12)
            drawn = [sizer.sample() for _ in range(self.N)]
            rng = np.random.default_rng(12)
            assert drawn == [
                max(1.0, float(rng.exponential(mean))) for _ in range(self.N)
            ]


class TestDeterministic:
    def test_constant_gaps(self):
        gaps = list(islice(DeterministicArrivals(4.0).interarrivals(), 5))
        assert gaps == [0.25] * 5


class TestOnOff:
    def test_long_run_rate_matches_mean(self):
        assert mean_rate_of(OnOffArrivals(20.0, seed=0), n=50_000) == pytest.approx(
            20.0, rel=0.15
        )

    def test_burstier_than_poisson(self):
        gaps = np.array(list(islice(OnOffArrivals(10.0, seed=2).interarrivals(), 50_000)))
        # On-off inter-arrivals have CV > 1 (silence gaps inflate variance).
        assert gaps.std() / gaps.mean() > 1.2

    def test_bad_burstiness_rejected(self):
        with pytest.raises(TrafficError):
            OnOffArrivals(10.0, burstiness=0.5)


class TestPacketSizes:
    def test_exponential_mean(self):
        sizer = ExponentialPacketSize(1000.0, seed=0)
        samples = np.array([sizer.sample() for _ in range(20_000)])
        assert samples.mean() == pytest.approx(1000.0, rel=0.05)

    def test_exponential_floor_one_bit(self):
        sizer = ExponentialPacketSize(0.5, seed=1)
        assert all(sizer.sample() >= 1.0 for _ in range(100))

    def test_constant(self):
        assert ConstantPacketSize(500.0).sample() == 500.0

    def test_bad_mean_rejected(self):
        with pytest.raises(TrafficError):
            ExponentialPacketSize(0.0)


class TestFactory:
    @pytest.mark.parametrize("kind", ["poisson", "deterministic", "onoff"])
    def test_known_kinds(self, kind):
        process = make_arrivals(kind, 10.0, seed=0)
        assert process.mean_rate == 10.0

    def test_unknown_kind_raises(self):
        with pytest.raises(TrafficError, match="unknown arrival"):
            make_arrivals("pareto", 10.0)
