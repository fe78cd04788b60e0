"""Tests for the peak-height null distribution."""

import math
import sys

import numpy as np
import pytest

from peaksig import (
    InvalidMomentsError,
    Candidates,
    NoiseSpec,
    SpectralMoments,
    asymptotic_bh_threshold,
    assign_pvalues,
    bh,
    bonferroni,
    bonferroni_approx_threshold,
    bonferroni_deterministic_threshold,
    expected_num_maxima,
    gaussian_model_moments,
    peak_height_right_cdf,
    peak_height_right_cdf_inverse,
)
from peaksig.nulldist import _HeightLaw

# F(0) = 1/2 + 1/(2 sqrt 3) for the Gaussian-autocorrelation model,
# where lambda2^2 / (sigma2 lambda4) = 1/3 for every bandwidth.
F_AT_ZERO = 0.5 + 0.5 / math.sqrt(3.0)


def model_moments(sigma=1.0, nu=0.0, gamma=1.0):
    return gaussian_model_moments(NoiseSpec(sigma=sigma, nu=nu), gamma)


class TestGaussianModelMoments:
    def test_closed_form_at_xi_1_5(self):
        # sigma = 1, xi = 1.5: independently integrated values.
        m = model_moments(sigma=1.0, nu=0.0, gamma=1.5)
        assert m.sigma2 == pytest.approx(0.18806319451591877, rel=1e-12)
        assert m.lambda2 == pytest.approx(0.04179182100353751, rel=1e-12)
        assert m.lambda4 == pytest.approx(0.02786121400235834, rel=1e-12)

    def test_closed_form_at_xi_3(self):
        m = model_moments(sigma=1.0, nu=0.0, gamma=3.0)
        assert m.sigma2 == pytest.approx(0.09403159725795938, rel=1e-12)
        assert m.lambda2 == pytest.approx(0.005223977625442188, rel=1e-12)
        assert m.lambda4 == pytest.approx(0.0008706629375736979, rel=1e-12)

    def test_nu_combines_in_quadrature(self):
        a = model_moments(nu=4.0, gamma=3.0)
        b = model_moments(nu=0.0, gamma=5.0)
        assert a == b

    def test_scale_is_quadratic_in_sigma(self):
        one = model_moments(sigma=1.0, gamma=2.0)
        two = model_moments(sigma=2.0, gamma=2.0)
        assert two.sigma2 == pytest.approx(4.0 * one.sigma2, rel=1e-15)
        assert two.lambda2 == pytest.approx(4.0 * one.lambda2, rel=1e-15)
        assert two.lambda4 == pytest.approx(4.0 * one.lambda4, rel=1e-15)

    def test_moment_ratio_is_one_third(self):
        # lambda2^2 = sigma2 lambda4 / 3 identically in this model.
        for gamma in (0.7, 1.5, 3.0, 10.0):
            m = model_moments(gamma=gamma)
            assert m.lambda2**2 / (m.sigma2 * m.lambda4) == pytest.approx(
                1.0 / 3.0, rel=1e-12
            )
            assert m.sigma2 * m.lambda4 - m.lambda2**2 > 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            gaussian_model_moments(NoiseSpec(sigma=0.0), 3.0)
        with pytest.raises(ValueError):
            gaussian_model_moments(NoiseSpec(nu=-1.0), 3.0)
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma must be positive"):
                gaussian_model_moments(NoiseSpec(), gamma)

    @pytest.mark.parametrize(
        "sigma, nu, gamma",
        [
            (1.0, 0.0, 1e-300), (1.0, 0.0, 1e300), (1e200, 0.0, 3.0), (1.0, 1e300, 3.0),
            (1e-200, 0.0, 3.0), (2.0**-531, 0.0, 3.0), (2.0**-105, 0.0, 3.0 * 2.0**-210),
        ],
    )
    def test_moments_outside_float_range_refused(self, sigma, nu, gamma):
        # Overflow, division by an underflowed power, a subnormal power, and
        # zero or subnormal moments all name the three inputs.
        with pytest.raises(ValueError) as info:
            gaussian_model_moments(NoiseSpec(sigma, nu), gamma)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"sigma={sigma!r}, nu={nu!r} and gamma={gamma!r} put the model "
            "moments outside the float range"
        )

    def test_law_exact_under_power_of_two_time_scaling(self):
        # Time scaled by 2^t and the noise level by 2^(t/2) leave the law's
        # coefficients as they were, bit for bit.
        rng = np.random.default_rng(33)
        draws = zip(
            rng.uniform(1.0, 10.0, 20_000).tolist(),
            rng.uniform(0.0, 5.0, 20_000).tolist(),
            (2 * rng.integers(-10, 11, 20_000)).tolist(),
        )
        def coefficients(law):
            return law.sigma, law.a_curv, law.a_mix, law.amp

        for g, nu, t in draws:
            base = coefficients(_HeightLaw(model_moments(1.0, nu, g)))
            scale = math.ldexp(1.0, t)
            scaled = model_moments(math.ldexp(1.0, t // 2), scale * nu, scale * g)
            assert coefficients(_HeightLaw(scaled)) == base, (g, nu, t)

    def test_normal_moments_with_underflowing_delta_accepted(self):
        # sigma2 * lambda4 underflows at gamma 1e60, but each moment is a
        # normal float, so the law is formed on rescaled moments.
        m = model_moments(gamma=1e60)
        assert peak_height_right_cdf(m, 0.0) == pytest.approx(F_AT_ZERO, abs=1e-12)


BAD_TRIPLES = [
    (0.0, 0.5, 1.0),
    (1.0, -0.5, 1.0),
    (1.0, 0.5, 0.0),
    (np.nan, 0.5, 1.0),
    (1.0, 1.0, 1.0),  # delta = 0
    (1.0, 2.0, 1.0),  # delta < 0
    (1.0, 1e200, 1.0),  # lambda2^2 overflows
    (1e-300, 1e10, 1e-300),  # lambda2 overflows once rescaled
    (1e-310, 1e-311, 1e-310),  # subnormal
    (1.0, 5e-324, 1.0),  # subnormal lambda2, though Delta > 0
    (10**400, 1.0, 1.0),  # an int past the float range
]

# Every public entry point that reads moments, with its other arguments valid.
# Bonferroni and BH judge the moments whether or not they reject anything.
MOMENT_READERS = {
    "right_cdf": lambda m: peak_height_right_cdf(m, 0.0),
    "inverse": lambda m: peak_height_right_cdf_inverse(m, 0.5),
    "expected_num_maxima": lambda m: expected_num_maxima(m, 100.0),
    "deterministic_threshold": lambda m: bonferroni_deterministic_threshold(m, 2000.0, 0.05),
    "approx_threshold": lambda m: bonferroni_approx_threshold(m, 2000.0, 0.05),
    "asymptotic_bh_threshold": lambda m: asymptotic_bh_threshold(m, 0.01, 0.05),
    **{
        f"{rule.__name__}-{label}": lambda m, rule=rule, p=p: rule(p, 0.05, moments=m)
        for rule in (bonferroni, bh)
        for label, p in (("empty", []), ("0.9", [0.9]), ("1e-9", [1e-9]))
    },
}


class TestSpectralMoments:
    def test_validate_passes_through(self):
        m = SpectralMoments(1.0, 0.5, 1.0)
        assert m.validate() is m

    @pytest.mark.parametrize("triple", BAD_TRIPLES)
    def test_validate_rejects(self, triple):
        with pytest.raises(InvalidMomentsError):
            SpectralMoments(*triple).validate()

    @pytest.mark.parametrize("triple", BAD_TRIPLES)
    @pytest.mark.parametrize("reader", MOMENT_READERS)
    def test_every_reader_rejects(self, reader, triple):
        with pytest.raises(InvalidMomentsError):
            MOMENT_READERS[reader](SpectralMoments(*triple))

    @pytest.mark.parametrize("name", ["sigma2", "lambda2", "lambda4"])
    def test_smallest_normal_accepted_subnormal_refused(self, name):
        # Each moment must be a positive normal float; the triple is feasible
        # either way, so only the range rule decides.
        values = {"sigma2": 1e200, "lambda2": 1e-100, "lambda4": 1e200}
        tiny = sys.float_info.min
        SpectralMoments(**{**values, name: tiny}).validate()
        below = math.nextafter(tiny, 0.0)
        with pytest.raises(InvalidMomentsError, match=f"^{name} must be a positive normal float"):
            SpectralMoments(**{**values, name: below}).validate()

    def test_invalid_moments_is_value_error(self):
        assert issubclass(InvalidMomentsError, ValueError)


class TestRightCdf:
    def test_value_at_zero(self):
        m = model_moments(gamma=3.0)
        assert peak_height_right_cdf(m, 0.0) == pytest.approx(F_AT_ZERO, abs=1e-12)

    def test_heavier_than_gaussian_at_zero(self):
        assert F_AT_ZERO > 0.5

    def test_monotone_decreasing(self):
        m = model_moments(gamma=1.5)
        sigma = math.sqrt(m.sigma2)
        u = np.linspace(-6.0 * sigma, 8.0 * sigma, 10_000)
        f = peak_height_right_cdf(m, u)
        # Allow one ulp of rounding noise where f saturates at 1.
        assert np.all(np.diff(f) <= 1e-15)
        assert np.all((f >= 0.0) & (f <= 1.0))

    def test_limits(self):
        m = model_moments(gamma=2.0)
        sigma = math.sqrt(m.sigma2)
        assert peak_height_right_cdf(m, -10.0 * sigma) >= 1.0 - 1e-6
        assert peak_height_right_cdf(m, 10.0 * sigma) <= 1e-12

    def test_scalar_and_vector_forms(self):
        m = model_moments(gamma=1.0)
        u = np.array([-1.0, 0.0, 1.0])
        vec = peak_height_right_cdf(m, u)
        assert isinstance(peak_height_right_cdf(m, 0.0), float)
        assert vec.shape == (3,)
        assert vec[1] == pytest.approx(peak_height_right_cdf(m, 0.0), abs=1e-15)

    def test_scale_invariance(self):
        # u in units of sigma is all that matters within this family.
        a = model_moments(sigma=1.0, gamma=2.0)
        b = model_moments(sigma=3.0, gamma=2.0)
        u = 1.3 * math.sqrt(a.sigma2)
        assert peak_height_right_cdf(a, u) == pytest.approx(
            peak_height_right_cdf(b, 3.0 * u), rel=1e-12
        )

    def test_validates_moments(self):
        with pytest.raises(InvalidMomentsError):
            peak_height_right_cdf(SpectralMoments(1.0, 2.0, 1.0), 0.0)


# F^{-1}(p) at NoiseSpec(1, nu) and bandwidth gamma, pinned bit for bit
# on both bracket branches (p below and above F(0)) and deep in the tail.
INVERSE_PS = (
    1e-320, 1e-300, 1e-250, 1e-200, 1e-150, 1e-100, 1e-50, 1e-30, 1e-20, 1e-15,
    1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5,
    0.75, 0.78, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-12,
)
INVERSE_BITS = {
    (0.7, 0.0): (
        "0x1.85c43229d18aep+4", "0x1.79615b1b17803p+4", "0x1.5878da84040d8p+4",
        "0x1.341183595d237p+4", "0x1.0abdf1359cfdcp+4", "0x1.b36a0f86aa70cp+3",
        "0x1.33841c75bb032p+3", "0x1.dba3d19d9ebb3p+2", "0x1.83944f44a5a40p+2",
        "0x1.4efa4008deeb0p+2", "0x1.2b01d41c76030p+2", "0x1.0212275fbc2bep+2",
        "0x1.a28cb1db33ad3p+1", "0x1.5230a4ded097cp+1", "0x1.21c6f43e80218p+1",
        "0x1.cefc7f4286fcap+0", "0x1.6818e62654e77p+0", "0x1.31b43bf63104ep+0",
        "0x1.af169362045cep-1", "0x1.d1bbc8238c94cp-2", "0x1.2653a498c18cbp-4",
        "0x1.11d282b3284c2p-6", "-0x1.6f64e8dfed282p-6", "-0x1.0e648178696e3p-3",
        "-0x1.13f81805cdaa5p-2", "-0x1.e3bf621b06718p-2", "-0x1.b3764dc6fab88p-1",
        "-0x1.45575d6216d1ap+0", "-0x1.1685c6df049f8p+1", "-0x1.e78a17423cac5p+1",
    ),
    (1.5, 0.0): (
        "0x1.0a42d9b0dbf21p+4", "0x1.01ccc1145de5ep+4", "0x1.d6a372722376ap+3",
        "0x1.a4e6cdd035152p+3", "0x1.6c705bbfed080p+3", "0x1.2971d0d1e58c4p+3",
        "0x1.a4259cb71b97ap+2", "0x1.44ec861549d70p+2", "0x1.08c4600c91b50p+2",
        "0x1.c9aa9c4cdcf7bp+1", "0x1.988582f49ac8bp+1", "0x1.60978ccfb2755p+1",
        "0x1.1dec7e4a00b31p+1", "0x1.ce0e36e9f3dd2p+0", "0x1.8be935ddcd87ep+0",
        "0x1.3c47a550ade56p+0", "0x1.ebfc8caf813d4p-1", "0x1.a1abd5ea39f76p-1",
        "0x1.267d426c2c921p-1", "0x1.3e2814a66739ap-2", "0x1.92207a75cce20p-5",
        "0x1.761ccc5563138p-7", "-0x1.f5f4bceb6553cp-7", "-0x1.716d371a666e0p-4",
        "-0x1.790bac01d5db2p-3", "-0x1.4a766778be214p-2", "-0x1.297a2debcdbfep-1",
        "-0x1.bc8034191199ap-1", "-0x1.7c88c5dd4c39bp+0", "-0x1.4d0d8613bd3ffp+1",
    ),
    (3.0, 0.0): (
        "0x1.788cd3d1ec386p+3", "0x1.6c9581403acc0p+3", "0x1.4ccaa995306bap+3",
        "0x1.299f52fbf6f2bp+3", "0x1.01b27cd8c6c5cp+3", "0x1.a4a671fe2f936p+2",
        "0x1.2916b788eab46p+2", "0x1.cb83065b4226cp+1", "0x1.766fed0517de9p+1",
        "0x1.439e79f6a77d3p+1", "0x1.20de4bc6a9e67p+1", "0x1.f2a3efc8fad74p+0",
        "0x1.945b793ba96eep+0", "0x1.46b8fc0193058p+0", "0x1.17f38ad969cd9p+0",
        "0x1.bf498af1b237dp-1", "0x1.5be312cee62ccp-1", "0x1.275691b8db98cp-1",
        "0x1.a07883606b492p-2", "0x1.c1f0faf53b69ap-3", "0x1.1c58bd1dace83p-5",
        "0x1.08899854db3b3p-7", "-0x1.62efbe429b560p-7", "-0x1.05395ca033799p-4",
        "-0x1.0a9c8afe9dd83p-3", "-0x1.d35835e6f1560p-3", "-0x1.a4b245f79ee02p-2",
        "-0x1.3a4f3d1e7aaeep-1", "-0x1.0d140f8ba4d62p+0", "-0x1.d70200d3044e4p+0",
    ),
    (6.5, 0.0): (
        "0x1.ffa17f22d24c4p+2", "0x1.ef5f42cb930cbp+2", "0x1.c42cc06bd00ccp+2",
        "0x1.94639fb4d5ed8p+2", "0x1.5e243de41313ap+2", "0x1.1dc688885e0bcp+2",
        "0x1.93aa02dd1330ap+1", "0x1.382d432090100p+1", "0x1.fcc28e5e26a70p+0",
        "0x1.b7b631f42cb3ep+0", "0x1.887eaa8bc09fep+0", "0x1.52c269eb4ff42p+0",
        "0x1.12b4ea8185a5ep+0", "0x1.bbedb809b187ep-1", "0x1.7c6103c9b4169p-1",
        "0x1.2fdf32a33ac5cp-1", "0x1.d8af73c9057f2p-2", "0x1.9149192e147bap-2",
        "0x1.1aefa858f4b49p-2", "0x1.31acc8e3d22afp-3", "0x1.8259db07a3039p-6",
        "0x1.676f87344ddebp-8", "-0x1.e24383fe518a2p-8", "-0x1.62ef01927637ap-5",
        "-0x1.6a40f1bc755bcp-4", "-0x1.3d7f848591951p-3", "-0x1.1dce91a2dc8fep-2",
        "-0x1.ab1003463bd0ap-2", "-0x1.6d9b020a7b330p-1", "-0x1.3ffc9f507328ap+0",
    ),
    (30.0, 0.0): (
        "0x1.dc4d69de36e6dp+1", "0x1.cd2a953e1ab49p+1", "0x1.a4f3abcde77e7p+1",
        "0x1.78773fb8b8502p+1", "0x1.45f6ccbdd8a70p+1", "0x1.0a0ae356f1e99p+1",
        "0x1.77ca73f2c2a9cp+0", "0x1.229eec164257cp+0", "0x1.d9a1389ef3e87p-1",
        "0x1.99596cb55f49ep-1", "0x1.6d648c2f9e633p-1", "0x1.3b5e2c6b86b5ap-1",
        "0x1.ff79de293a4fep-2", "0x1.9d4668155a24fp-2", "0x1.621d1139fa7f2p-2",
        "0x1.1ae3a9f95a3a2p-2", "0x1.b80bceb0ed60cp-3", "0x1.759395ff98d64p-3",
        "0x1.0766341d5eb40p-3", "0x1.1c9160c4a7feep-4", "0x1.67ac57321e009p-7",
        "0x1.4e9dcb7b305acp-9", "-0x1.c0f68dd99203cp-9", "-0x1.4a6cdaf21c9ccp-6",
        "-0x1.513d658fc86b8p-5", "-0x1.27931ceed4e96p-4", "-0x1.0a125e661525ep-3",
        "-0x1.8d92d747e778cp-3", "-0x1.545c35e67f6c0p-2", "-0x1.29e439a54388cp-1",
    ),
    (0.7, 1.0): (
        "0x1.2728d84accd1dp+4", "0x1.1dc7a7472650ap+4", "0x1.04dc016e0b22ep+4",
        "0x1.d29571233ec5ep+3", "0x1.93fe3229a7ed1p+3", "0x1.49ba3bfb7f65fp+3",
        "0x1.d1bf4841e0f9cp+2", "0x1.683072bb30b28p+2", "0x1.2580dbae1c890p+2",
        "0x1.fb56c02883fdap+1", "0x1.c4dc2c560fafep+1", "0x1.86dc39742e246p+1",
        "0x1.3cf4cf50feda8p+1", "0x1.001a26e76b7e6p+1", "0x1.b6e17dc3135f4p+0",
        "0x1.5e9b65bd1b1e8p+0", "0x1.10b121c1b9790p+0", "0x1.cf00b824f632dp-1",
        "0x1.467390df34cb2p-1", "0x1.60aff9d43ca7cp-2", "0x1.bdc5774f90e46p-5",
        "0x1.9eb769f6fbd23p-7", "-0x1.1637b9cf83a79p-6", "-0x1.9985a2a4911c6p-4",
        "-0x1.a1f7c876e3f54p-3", "-0x1.6e54378c7d0f6p-2", "-0x1.49c381775477dp-1",
        "-0x1.ecbe8a18963d8p-1", "-0x1.a5d5d0e50b5dep+0", "-0x1.71334ec105759p+1",
    ),
    (1.5, 1.0): (
        "0x1.e5bfedeb20e44p+3", "0x1.d6503e1afa4cep+3", "0x1.ad4d224c5027cp+3",
        "0x1.7feed3571069fp+3", "0x1.4c6df1b4ad284p+3", "0x1.0f51c4fd8ff42p+3",
        "0x1.7f3e9a2991d7cp+2", "0x1.28629abc4bc94p+2", "0x1.e3062a8e029b7p+1",
        "0x1.a177f9364a3fcp+1", "0x1.74a3e612133ddp+1", "0x1.419f8382706e5p+1",
        "0x1.04cf7e04bfdf7p+1", "0x1.a578e392d140ap+0", "0x1.69232561ba3f7p+0",
        "0x1.208016902b9edp+0", "0x1.c0c6399fe7928p-1", "0x1.7cfc7dd678e82p-1",
        "0x1.0c9fa9c590324p-1", "0x1.2236534fd9d92p-2", "0x1.6ecea64a9c6d4p-5",
        "0x1.5540df80d8226p-7", "-0x1.c9de3fdcf403ap-7", "-0x1.50faa6e9d5c7ap-4",
        "-0x1.57edcbc50dea0p-3", "-0x1.2d6ff30f9fdd3p-2", "-0x1.0f596608c6b38p-1",
        "-0x1.957598a9ddf70p-1", "-0x1.5b1c743cbe2aep+0", "-0x1.2fccd369c8a6fp+1",
    ),
    (3.0, 1.0): (
        "0x1.6ec2defd4b436p+3", "0x1.631b2ef50642ep+3", "0x1.4423eb9e58008p+3",
        "0x1.21e2a29ac6a20p+3", "0x1.f5ff011aa816cp+2", "0x1.99b7004b255a6p+2",
        "0x1.215d9448279cfp+2", "0x1.bf90f47403cb8p+1", "0x1.6cb407e94e088p+1",
        "0x1.3b34c745f3612p+1", "0x1.195bdd87cc776p+1", "0x1.e5ad76ec7815cp+0",
        "0x1.89d87585681bap+0", "0x1.3e3aa1d531e9ep+0", "0x1.10ac746c25659p+0",
        "0x1.b3a8d3df42c60p-1", "0x1.52d7df07c8180p-1", "0x1.1fa914e912ceap-1",
        "0x1.95a4e21e7f4acp-2", "0x1.b63e9a33821a9p-3", "0x1.14f4667619198p-5",
        "0x1.01a9165879de6p-7", "-0x1.59b5a054da8dcp-7", "-0x1.fcddcf555f981p-5",
        "-0x1.03ae3b875a138p-3", "-0x1.c7320367e149ap-3", "-0x1.99c2858d4996cp-2",
        "-0x1.32237ef9191aap-1", "-0x1.0615554d8eee6p+0", "-0x1.cac36d4786413p+0",
    ),
    (6.5, 1.0): (
        "0x1.fca5bf3418e1cp+2", "0x1.ec7bc824e3de9p+2", "0x1.c189c1a2dede4p+2",
        "0x1.9207f63a9283bp+2", "0x1.5c198f266ea94p+2", "0x1.1c1bef4d97bb4p+2",
        "0x1.914f6e76c443ep+1", "0x1.365b40a2d7632p+1", "0x1.f9cb17893bacfp+0",
        "0x1.b525cdf3ae1d7p+0", "0x1.8634c28146ae9p+0", "0x1.50c8b8de36192p+0",
        "0x1.111ad73aba9a5p+0", "0x1.b957088cc294cp-1", "0x1.7a2931d08cb68p-1",
        "0x1.2e1995e1dfb12p-1", "0x1.d5edd6e2baacbp-2", "0x1.8ef211c00d492p-2",
        "0x1.19494c2e07982p-2", "0x1.2fe47b16d6809p-3", "0x1.80191ed75d30ap-6",
        "0x1.6556f8b96b826p-8", "-0x1.df739ab70ce02p-8", "-0x1.60dd2b8c5236dp-5",
        "-0x1.68242e581b94bp-4", "-0x1.3ba5907d6216ap-3", "-0x1.1c23ec694b534p-2",
        "-0x1.a89281266a8f0p-2", "-0x1.6b793dc0bf7d0p-1", "-0x1.3e1ef43a76df4p+0",
    ),
    (30.0, 1.0): (
        "0x1.dc2b91105b7fbp+1", "0x1.cd09cfca70bb1p+1", "0x1.a4d5c1ed5a109p+1",
        "0x1.785c7f2036e62p+1", "0x1.45dfa2dd4514ep+1", "0x1.09f7fb8b2c8b8p+1",
        "0x1.77afbfa1ba2a0p+0", "0x1.228a452afaae5p+0", "0x1.d97f906fcb9f4p-1",
        "0x1.993c55e6fcf18p-1", "0x1.6d4a950778254p-1", "0x1.3b47c34e8a120p-1",
        "0x1.ff55857c05c5cp-2", "0x1.9d2909dc864a5p-2", "0x1.6203e74254b98p-2",
        "0x1.1acf8fb45e587p-2", "0x1.b7ec897450530p-3", "0x1.757909f6e6f1bp-3",
        "0x1.07537c67b7622p-3", "0x1.1c7d27f665164p-4", "0x1.6792c8168c30ep-7",
        "0x1.4e860433d6124p-9", "-0x1.c0d6a665a7d1bp-9", "-0x1.4a555fe979bacp-6",
        "-0x1.51256e8ec6442p-5", "-0x1.277e1be4dc9eap-4", "-0x1.09ff761239620p-3",
        "-0x1.8d7696b24352bp-3", "-0x1.544406219e1d8p-2", "-0x1.29cf0e7582292p-1",
    ),
}


class TestInverse:
    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.5, 0.99])
    def test_roundtrip(self, p):
        m = model_moments(gamma=3.0)
        u = peak_height_right_cdf_inverse(m, p)
        assert peak_height_right_cdf(m, u) == pytest.approx(p, abs=1e-12)

    def test_median_of_distribution(self):
        m = model_moments(gamma=1.5)
        u = peak_height_right_cdf_inverse(m, F_AT_ZERO)
        assert abs(u) < 1e-9

    def test_deep_tail(self):
        # Far beyond double-precision cdf resolution; the log form keeps
        # the bracketing sound.
        m = model_moments(gamma=3.0)
        u = peak_height_right_cdf_inverse(m, 1e-30)
        assert u > 6.0 * math.sqrt(m.sigma2)
        assert math.isfinite(u)

    def test_far_tail_quantile(self):
        # F(3) ~ 9.5e-22 at gamma 3, far below the 1e-12 absolute stop:
        # the log-space stop must still pin the height.
        m = model_moments(gamma=3.0)
        p = peak_height_right_cdf(m, 3.0)
        assert p < 1e-20
        assert peak_height_right_cdf_inverse(m, p) == pytest.approx(3.0, abs=1e-6)

    def test_monotone_in_p(self):
        m = model_moments(gamma=2.0)
        us = [peak_height_right_cdf_inverse(m, p) for p in (0.9, 0.5, 0.1, 1e-4)]
        assert us == sorted(us)

    @pytest.mark.parametrize("gamma,nu", sorted(INVERSE_BITS))
    def test_exact_bits(self, gamma, nu):
        m = model_moments(nu=nu, gamma=gamma)
        got = [peak_height_right_cdf_inverse(m, p) for p in INVERSE_PS]
        assert got == [float.fromhex(h) for h in INVERSE_BITS[gamma, nu]]

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, np.nan])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            peak_height_right_cdf_inverse(model_moments(), p)


# F(u) at NoiseSpec(1, nu) and bandwidth gamma, at u = h sigma for each h
# below (40 and 45 read exactly 0), then the Rice count on length 2000 and
# the approximate Bonferroni threshold at length 2000, alpha 0.05: pinned bit
# for bit at INVERSE_BITS's (gamma, nu) pairs.
FORWARD_HEIGHTS = (
    -6, -4, -3, -2, -1.5, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 1.5, 2, 2.5,
    3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 35, 38, 40, 45,
)
FORWARD_BITS = {
    (0.7, 0.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e65p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651966p-1", "0x1.b8bb1c1efb1c1p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb41p-2",
        "0x1.8c36fba622c57p-3", "0x1.442beb3e08376p-4", "0x1.a19c4fc4af044p-6",
        "0x1.a506fd27f5d86p-8", "0x1.963c422edceffp-13", "0x1.20c8885e27a5bp-19",
        "0x1.2e205ce4450f4p-27", "0x1.076e279e585f2p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2ca8bp-105", "0x1.df25d0062a6ffp-164", "0x1.96e4f69aa3fc8p-290",
        "0x1.49c53e856efd1p-452", "0x1.fe23ecaa2fb21p-651", "0x1.78940dfc23a61p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.1676908f25295p+9", "0x1.65ac41b5e5dc3p+1",
    ),
    (1.5, 0.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e66p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651967p-1", "0x1.b8bb1c1efb1c2p-1", "0x1.93cd3a2c8198fp-1",
        "0x1.65c71620d19fbp-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb41p-2",
        "0x1.8c36fba622c57p-3", "0x1.442beb3e08376p-4", "0x1.a19c4fc4af046p-6",
        "0x1.a506fd27f5d87p-8", "0x1.963c422edcf00p-13", "0x1.20c8885e27a5dp-19",
        "0x1.2e205ce4450f6p-27", "0x1.076e279e585f3p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2ca8dp-105", "0x1.df25d0062a7f2p-164", "0x1.96e4f69aa3fcap-290",
        "0x1.49c53e856efd3p-452", "0x1.fe23ecaa2ff20p-651", "0x1.78940dfc23a63p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.03e620859a268p+8", "0x1.d50ef77636bbap+0",
    ),
    (3.0, 0.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e66p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651967p-1", "0x1.b8bb1c1efb1c2p-1", "0x1.93cd3a2c8198fp-1",
        "0x1.65c71620d19fbp-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb41p-2",
        "0x1.8c36fba622c57p-3", "0x1.442beb3e08376p-4", "0x1.a19c4fc4af046p-6",
        "0x1.a506fd27f5d87p-8", "0x1.963c422edcf00p-13", "0x1.20c8885e27a5dp-19",
        "0x1.2e205ce4450f6p-27", "0x1.076e279e585f3p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2ca8dp-105", "0x1.df25d0062a703p-164", "0x1.96e4f69aa3fcap-290",
        "0x1.49c53e856efd3p-452", "0x1.fe23ecaa2fb24p-651", "0x1.78940dfc23a63p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.03e620859a268p+7", "0x1.3e891ec2d6240p+0",
    ),
    (6.5, 0.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e65p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651966p-1", "0x1.b8bb1c1efb1c1p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb41p-2",
        "0x1.8c36fba622c57p-3", "0x1.442beb3e08376p-4", "0x1.a19c4fc4af044p-6",
        "0x1.a506fd27f5d86p-8", "0x1.963c422edceffp-13", "0x1.20c8885e27a5bp-19",
        "0x1.2e205ce4450f4p-27", "0x1.076e279e585f2p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2ca8bp-105", "0x1.df25d0062a7f0p-164", "0x1.96e4f69aa3fc8p-290",
        "0x1.49c53e856efd1p-452", "0x1.fe23ecaa2ff1ep-651", "0x1.78940dfc23a61p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.dfd03c0a57a98p+5", "0x1.9bfab692faa46p-1",
    ),
    (30.0, 0.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e65p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651966p-1", "0x1.b8bb1c1efb1c1p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb40p-2",
        "0x1.8c36fba622c57p-3", "0x1.442beb3e08375p-4", "0x1.a19c4fc4af043p-6",
        "0x1.a506fd27f5d86p-8", "0x1.963c422edceffp-13", "0x1.20c8885e27a5bp-19",
        "0x1.2e205ce4450f4p-27", "0x1.076e279e585f2p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2ca8bp-105", "0x1.df25d0062a6ffp-164", "0x1.96e4f69aa3fc8p-290",
        "0x1.49c53e856efd1p-452", "0x1.fe23ecaa2fb21p-651", "0x1.78940dfc23a61p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.9fd69a6f5d0a7p+3", "0x1.55f5fe7ccdba9p-2",
    ),
    (0.7, 1.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e66p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651967p-1", "0x1.b8bb1c1efb1c2p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb41p-2",
        "0x1.8c36fba622c57p-3", "0x1.442beb3e08376p-4", "0x1.a19c4fc4af03bp-6",
        "0x1.a506fd27f5d87p-8", "0x1.963c422edceffp-13", "0x1.20c8885e27a41p-19",
        "0x1.2e205ce4450f5p-27", "0x1.076e279e585f3p-47", "0x1.0d3e49c709f6ep-73",
        "0x1.4292572a2ca8cp-105", "0x1.df25d0062a701p-164", "0x1.96e4f69aa3d66p-290",
        "0x1.49c53e856efd2p-452", "0x1.fe23ecaa2fb22p-651", "0x1.78940dfc23a62p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.3f60522dc443bp+8", "0x1.06f7c1c35881dp+1",
    ),
    (1.5, 1.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e65p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651966p-1", "0x1.b8bb1c1efb1c2p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb42p-2",
        "0x1.8c36fba622c58p-3", "0x1.442beb3e08377p-4", "0x1.a19c4fc4af046p-6",
        "0x1.a506fd27f5d87p-8", "0x1.963c422edcf00p-13", "0x1.20c8885e27a5cp-19",
        "0x1.2e205ce4450f5p-27", "0x1.076e279e585f3p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2ca8cp-105", "0x1.df25d0062a7f2p-164", "0x1.96e4f69aa3fc9p-290",
        "0x1.49c53e856efd2p-452", "0x1.fe23ecaa2ff20p-651", "0x1.78940dfc23a62p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.b07f7adf71659p+7", "0x1.a76e2a76b7790p+0",
    ),
    (3.0, 1.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e65p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651966p-1", "0x1.b8bb1c1efb1c1p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb40p-2",
        "0x1.8c36fba622c57p-3", "0x1.442beb3e08375p-4", "0x1.a19c4fc4af043p-6",
        "0x1.a506fd27f5d86p-8", "0x1.963c422edceffp-13", "0x1.20c8885e27a5bp-19",
        "0x1.2e205ce4450f4p-27", "0x1.076e279e585f2p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2ca8bp-105", "0x1.df25d0062a6ffp-164", "0x1.96e4f69aa3fc8p-290",
        "0x1.49c53e856efd1p-452", "0x1.fe23ecaa2fb21p-651", "0x1.78940dfc23a61p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.ed1fa1511a901p+6", "0x1.3542b8b7c49dfp+0",
    ),
    (6.5, 1.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e65p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651966p-1", "0x1.b8bb1c1efb1c1p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb40p-2",
        "0x1.8c36fba622c54p-3", "0x1.442beb3e08375p-4", "0x1.a19c4fc4af043p-6",
        "0x1.a506fd27f5d79p-8", "0x1.963c422edceffp-13", "0x1.20c8885e27a5bp-19",
        "0x1.2e205ce4450cep-27", "0x1.076e279e585f2p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2c9e9p-105", "0x1.df25d0062a6ffp-164", "0x1.96e4f69aa3fc8p-290",
        "0x1.49c53e856efd1p-452", "0x1.fe23ecaa2fb21p-651", "0x1.78940dfc23a61p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.da3be777c7221p+5", "0x1.99417bae18cb9p-1",
    ),
    (30.0, 1.0): (
        "0x1.fffffffffffe4p-1", "0x1.ffffff0992812p-1", "0x1.fffe9cd6c5e64p-1",
        "0x1.ff7bef11e5e66p-1", "0x1.fcea2711a5c4cp-1", "0x1.f27e571392a32p-1",
        "0x1.d413d21651967p-1", "0x1.b8bb1c1efb1c2p-1", "0x1.93cd3a2c8198ep-1",
        "0x1.65c71620d19fap-1", "0x1.30caa6aa1c0f0p-1", "0x1.819912c4edb41p-2",
        "0x1.8c36fba622c58p-3", "0x1.442beb3e08376p-4", "0x1.a19c4fc4af046p-6",
        "0x1.a506fd27f5d8dp-8", "0x1.963c422edceffp-13", "0x1.20c8885e27a5cp-19",
        "0x1.2e205ce445108p-27", "0x1.076e279e585f3p-47", "0x1.0d3e49c709fd3p-73",
        "0x1.4292572a2caddp-105", "0x1.df25d0062a701p-164", "0x1.96e4f69aa3fc9p-290",
        "0x1.49c53e856efd2p-452", "0x1.fe23ecaa2fb22p-651", "0x1.78940dfc23a62p-885",
        "0x0.00000bf90f285p-1022", "0x0.0p+0", "0x0.0p+0",
        "0x1.9f9b82d477205p+3", "0x1.55d998a70d382p-2",
    ),
}


class TestForwardBits:
    @pytest.mark.parametrize("gamma,nu", sorted(FORWARD_BITS))
    def test_exact_bits(self, gamma, nu):
        m = model_moments(nu=nu, gamma=gamma)
        u = np.array(FORWARD_HEIGHTS, dtype=float) * math.sqrt(m.sigma2)
        got = peak_height_right_cdf(m, u).tolist()
        got += [expected_num_maxima(m, 2000.0), bonferroni_approx_threshold(m, 2000.0, 0.05)]
        assert got == [float.fromhex(h) for h in FORWARD_BITS[gamma, nu]]


class TestExpectedNumMaxima:
    def test_rate_at_gamma_3(self):
        # L / (2 pi) sqrt(lambda4 / lambda2): pinned for xi = 3.
        m = model_moments(gamma=3.0)
        assert expected_num_maxima(m, 2000.0) == pytest.approx(
            129.94946687227934, rel=1e-12
        )

    def test_linear_in_length(self):
        m = model_moments(gamma=1.5)
        one = expected_num_maxima(m, 1000.0)
        assert expected_num_maxima(m, 2000.0) == pytest.approx(2.0 * one, rel=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            expected_num_maxima(model_moments(), 0.0)

    def test_validates_moments(self):
        with pytest.raises(InvalidMomentsError):
            expected_num_maxima(SpectralMoments(-1.0, 1.0, 1.0), 100.0)

    def test_finite_where_the_moment_quotient_overflows(self):
        # lambda4 / lambda2 = 1e400 is past the float range; its root is not.
        m = SpectralMoments(1.0, 1e-200, 1e200)
        assert expected_num_maxima(m, 1.0) == pytest.approx(1e200 / (2.0 * math.pi), rel=1e-12)


def table(index, height, **columns) -> Candidates:
    return Candidates(index=index, time=np.asarray(index, float), height=height, **columns)


class TestAssignPvalues:
    def test_attaches_in_order(self):
        m = model_moments(gamma=1.5)
        out = assign_pvalues(table([4, 9], [0.0, 1.0]), m)
        assert out.index.tolist() == [4, 9] and out.height.tolist() == [0.0, 1.0]
        assert out.p_value[0] == pytest.approx(F_AT_ZERO, abs=1e-12)
        assert out.rejected is None
        # Higher peaks get smaller p-values.
        assert out.p_value[1] < out.p_value[0]

    def test_originals_untouched(self):
        m = model_moments()
        maxima = table([1, 3], [0.5, 2.0], rejected=[True, False])
        height = maxima.height.copy()
        out = assign_pvalues(maxima, m)
        assert maxima.p_value is None
        assert out.height is maxima.height and np.array_equal(maxima.height, height)
        assert out.rejected is maxima.rejected

    def test_empty(self):
        out = assign_pvalues(table([], []), model_moments())
        assert len(out) == 0 and out.p_value.dtype == float and out.p_value.size == 0

    def test_columns_in_one_call(self):
        m = model_moments(gamma=1.5)
        heights = [0.0, 1.0, -0.5, 3.25]
        out = assign_pvalues(table([4, 9, 12, 20], heights), m)
        assert out.p_value.tolist() == [peak_height_right_cdf(m, u) for u in heights]
        assert out.p_value[0] == pytest.approx(F_AT_ZERO, abs=1e-12)
        assert out.rejected is None

    def test_floor_keeps_p_positive(self):
        m = model_moments(gamma=1.0)
        out = assign_pvalues(table([0], [100.0]), m)
        assert peak_height_right_cdf(m, 100.0) == 0.0
        assert out.p_value.tolist() == [np.finfo(float).tiny]
