"""Byte pins on every CRData tool output and on the statistics engines.

Each of the 35 tools runs through Galaxy on fixed inputs, the affy tools
on both paper archives (``fourCelFileSamples.zip`` and the 72-array
``affyCelFileSamples.zip``); the SHA-256 of every declared output and of
its info line is pinned.  Below the tools, the quantile-normalization
bytes and the moderated t-test's full top table, ``d0`` and ``s0_sq``
are pinned on small matrices with ties, +-inf and +-0.0, the inputs on
which a sort's tie order or a summation order would show.

An engine change that keeps every pin here changes no output byte.
"""

import hashlib

import numpy as np
import pytest

from repro.crdata import build_crdata_tools, install_crdata_tools
from repro.crdata.engines import diffexpr, normalize
from repro.galaxy import GalaxyApp, JobState
from repro.simcore import SimContext
from repro.workloads import (
    make_affy_cel_archive,
    make_clinical_table,
    make_expression_matrix_bytes,
    make_four_cel_archive,
    make_rnaseq_archive,
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_kinds(tool_id: str) -> tuple[str, ...]:
    if tool_id == "crdata_survivalKaplanMeier":
        return ("clinical",)
    if tool_id.startswith("crdata_affy") or tool_id == "crdata_heatmap_plot_demo":
        return ("four_cel", "affy_cel")
    if tool_id.startswith("crdata_sequence"):
        return ("bam",)
    return ("matrix",)


CASES = [
    f"{tool.id}[{kind}]" for tool in build_crdata_tools() for kind in input_kinds(tool.id)
]


@pytest.fixture(scope="module")
def world():
    ctx = SimContext(seed=5)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    install_crdata_tools(app.toolbox)
    app.create_user("boliu")
    history = app.create_history("boliu", "digests")
    four, affy = make_four_cel_archive(), make_affy_cel_archive()
    inputs = {
        "four_cel": app.upload_data(history, "fourCelFileSamples.zip",
                                    data=four.to_bytes(), size=four.declared_size,
                                    ext="zip"),
        "affy_cel": app.upload_data(history, "affyCelFileSamples.zip",
                                    data=affy.to_bytes(), size=affy.declared_size,
                                    ext="zip"),
        "matrix": app.upload_data(history, "m.tsv",
                                  data=make_expression_matrix_bytes(), ext="tabular"),
        "bam": app.upload_data(history, "r.bam",
                               data=make_rnaseq_archive().to_bytes(), ext="bam"),
        "clinical": app.upload_data(history, "c.tsv", data=make_clinical_table(),
                                    ext="tabular"),
    }
    return app, history, inputs


def tool_digests(world, case: str) -> dict[str, str]:
    """Run one case; SHA-256 of each declared output and its info line."""
    app, history, inputs = world
    tool_id, kind = case[:-1].split("[")
    job = app.run_tool("boliu", history, tool_id, inputs=[inputs[kind]])
    app.ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state == JobState.OK, job.stderr
    digests = {}
    for output in app.toolbox.get(tool_id).outputs:
        ds = job.outputs[output.name]
        digests[output.name] = sha256(app.fs.read(ds.file_path))
        digests[f"{output.name}.info"] = sha256(ds.info.encode())
    return digests


def test_every_case_is_pinned():
    assert sorted(TOOL_PINS) == sorted(CASES)
    assert len(CASES) == 50  # 35 tools, the 15 CEL tools on both archives


@pytest.mark.parametrize("case", CASES)
def test_tool_outputs_are_byte_identical(world, case):
    assert tool_digests(world, case) == TOOL_PINS[case]


# -- engines on edge-case matrices -------------------------------------------


def _tied() -> np.ndarray:
    """Small integers: ties in every column, duplicate and constant rows."""
    m = np.random.default_rng(20).integers(0, 4, size=(40, 6)).astype(float)
    m[5] = m[3]
    m[17] = m[3]
    m[30] = 2.0
    return m


def _signed_zero() -> np.ndarray:
    """+-0.0 mixed into otherwise untied columns."""
    m = np.random.default_rng(21).normal(0.0, 1.0, size=(30, 6))
    m[::4, :3] = -0.0
    m[2::4, 3:] = 0.0
    m[1, 1] = 0.0
    m[7, 4] = -0.0
    return m


def _infinite() -> np.ndarray:
    """One -inf and two tied +inf per column, so no rank mixes -inf and +inf."""
    m = np.random.default_rng(22).normal(8.0, 2.0, size=(25, 5))
    m[3, :] = -np.inf
    m[np.arange(5) + 10, np.arange(5)] = np.inf
    m[np.arange(5) + 15, np.arange(5)] = np.inf
    return m


def _untied_with_duplicates() -> np.ndarray:
    """Continuous values whose duplicate rows tie in p, some with -0.0."""
    m = np.random.default_rng(23).normal(8.0, 0.5, size=(60, 4))
    m[10] = m[2]
    m[11] = m[2]
    m[40] = m[7]
    m[20, 0] = -0.0
    m[20, 1] = 0.0
    return m


@pytest.mark.parametrize(
    "name,matrix",
    [("tied", _tied), ("signed_zero", _signed_zero), ("infinite", _infinite)],
)
def test_quantile_normalize_bytes_are_pinned(name, matrix):
    with np.errstate(invalid="ignore"):
        out = normalize.quantile_normalize(matrix())
    assert sha256(out.tobytes()) == QUANTILE_PINS[name]


@pytest.mark.parametrize(
    "name,matrix",
    [("tied", _tied), ("signed_zero", _signed_zero),
     ("duplicates", _untied_with_duplicates)],
)
def test_moderated_t_table_is_pinned(name, matrix):
    m = matrix()
    mask = np.arange(m.shape[1]) >= m.shape[1] // 2
    res = diffexpr.moderated_t_test(m, mask)
    assert (sha256(res.as_tsv().encode()), repr(res.d0), repr(res.s0_sq)) == (
        MODERATED_PINS[name]
    )


# -- pins, computed before any engine optimisation ----------------------------

TOOL_PINS: dict[str, dict[str, str]] = {
    "crdata_affyDifferentialExpression[four_cel]": {
        "top_table": "aa2071112ca08b9b6b35b4e709ce8bb487457c8af53f29970f0ba04c893f9229",
        "top_table.info": "0bd06ac6ddfd895568991764750fb41513d9f2727f5d1c35348f5be1b45ed7cd",
        "figure": "8a1c94bf01919addf1360fb2ccf32be4966facd766ca8add63c36ae1c097deb6",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyDifferentialExpression[affy_cel]": {
        "top_table": "5deaea6a69d1f7c7e0395bc5df36afc331cfacb50afa78f6a0d6de26cecab7a0",
        "top_table.info": "f0f8bf3c72ada2f0c4367082ce7e8e69f65930c86e5310941b32611e411e045b",
        "figure": "672bb3ed0c751f5df7cc26958a4073efee986b7b603de160a7a1363ae8004d92",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyClassify[four_cel]": {
        "predictions": "af6944deaa255bed94ef9c214e78d80f2eb451c108a1ed8e6ed8b8d196c67ef0",
        "predictions.info": "069f355dff347e3d4976c103bbb4be6a50417ab303a97743de430955c510de4d",
        "confusion": "f667463363ce72d95db613d91036b4c7689bcf0d0aba6a5b1f2d4c547031e2a3",
        "confusion.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyClassify[affy_cel]": {
        "predictions": "a6b0ce5f0df3c849396b09bf8db11d8b7b2e0c47fb05e35eeb207088e45f95e9",
        "predictions.info": "069f355dff347e3d4976c103bbb4be6a50417ab303a97743de430955c510de4d",
        "confusion": "3bd400a2542f5a8ca27ca25a51e974aea7072abfec8a9840b6b221c4deaf61c3",
        "confusion.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyNormalize[four_cel]": {
        "matrix": "3daf828a2cbca159b0af03124c485206e34d5e73965661b83dc665e0c0092914",
        "matrix.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyNormalize[affy_cel]": {
        "matrix": "7827a1ff8f2d9f3da0a7fb332b3d7e3a2b162c3b5f9dc575dc2cc811f96cdb0f",
        "matrix.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyQualityControl[four_cel]": {
        "report": "ec45c24127f9e3f0145da01f3d4e010632131a77b747ebf2b38d3ab7ea6ce542",
        "report.info": "0e2cd8b2abd2e85c4901a4e27d930fcff37993b7ac1b4b49a2b11486a3d4ff20",
    },
    "crdata_affyQualityControl[affy_cel]": {
        "report": "83b2d9a612deab492912c6796cfbc5b791a2c15aa4753d602b08e9b18b9ff2d6",
        "report.info": "0e2cd8b2abd2e85c4901a4e27d930fcff37993b7ac1b4b49a2b11486a3d4ff20",
    },
    "crdata_affyPCA[four_cel]": {
        "scores": "874de08e731a7e79322f26866138d7b8fe6bf18efbfc8dd4454e5dd68f48969f",
        "scores.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "figure": "21e70dfc5f970d0084d707472daf99e4007903470c88afa847418db5592044e9",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyPCA[affy_cel]": {
        "scores": "d03814b44ed74981692b1bda7704ebcaadc0e12588244dd1a66fe6ccb2b88e8b",
        "scores.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "figure": "282dff79085945b0bf6548f6c2cca3d359ca701fe5bddb09f2a53e1faf7f4c5c",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyHierarchicalClustering[four_cel]": {
        "clusters": "160ca95a098924dd057d3a9e9ce05a440488490dd17aae4b344c6377b958a159",
        "clusters.info": "6ece7a36261a0d92412a4ce436cc74044d8c24cc532445264dba8f6dae94bb34",
    },
    "crdata_affyHierarchicalClustering[affy_cel]": {
        "clusters": "46a33d68ca10ae2a13cfa237062544faaa757e8669e424281a60e38588a5981f",
        "clusters.info": "bdb3490be0910dffc5aaff00909ee87bff1fab059900b8d1d1c86a9c94481625",
    },
    "crdata_heatmap_plot_demo[four_cel]": {
        "figure": "a8b9de208453129ad2e275c2439c2f6d5ba676b48d84358c52ed27e7e5aea613",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "clusters": "96eb66f5e573f488e476e7b8bd88b9c4534d8f72eee2b2f6d5bfe4e4a3d89711",
        "clusters.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_heatmap_plot_demo[affy_cel]": {
        "figure": "ba8db8400bea587d772295c08397abd309be8a8ee8bc6442180343d1aad9fd14",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "clusters": "b7f571a4fda4dd8003b1e43a9df5568232f72b49e2021c093134cada90cc7902",
        "clusters.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyBoxplot[four_cel]": {
        "figure": "066c46d400265569298995cbebecb40c3afbf73c2c6df5d1f65f61e53348e918",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary": "ba38240fba2f7c7e62e3fd3d53b64acd939cee902c74d648610278249edb79ff",
        "summary.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyBoxplot[affy_cel]": {
        "figure": "4b063e222d357b04976e269156444b929661b241a03e9c042b82f61ff53aa228",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary": "cded98f96cb3c74491552702a17362e4ac0d257d1f39cc4e3f335f5e4eb4dd64",
        "summary.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyMAPlot[four_cel]": {
        "figure": "c3028510a906805ba6d8edc967e9dc81e3c6388abcd0856b59ac1baf42f5d8aa",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyMAPlot[affy_cel]": {
        "figure": "3de5b1e0e122cd05d3c9e8b009904b95c2b2778e63e7331a134a36ad125dd933",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyVolcanoPlot[four_cel]": {
        "figure": "8ceb6f573bf2a8a6345d98ed938e9a8f29574bbe3422614c66725da041e25408",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyVolcanoPlot[affy_cel]": {
        "figure": "501f38d4efa803f256bc8db272ed41db824519f863e67925d61868909baed58d",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyDensityPlot[four_cel]": {
        "figure": "63a8ae2c809440cc919ecb223d42cfe41b533ed14e9928bf627cc3de2ccde96b",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyDensityPlot[affy_cel]": {
        "figure": "9cc4e4add725c43362c5f554ccea66dce38e99b8ad925acf1e673bc5c2dcd9b8",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyFilterProbes[four_cel]": {
        "matrix": "3daf828a2cbca159b0af03124c485206e34d5e73965661b83dc665e0c0092914",
        "matrix.info": "f752e92a248fe2a475e6bd5884e19e11ce84b7d8f988dc8dd502cf3513d04722",
    },
    "crdata_affyFilterProbes[affy_cel]": {
        "matrix": "7827a1ff8f2d9f3da0a7fb332b3d7e3a2b162c3b5f9dc575dc2cc811f96cdb0f",
        "matrix.info": "f752e92a248fe2a475e6bd5884e19e11ce84b7d8f988dc8dd502cf3513d04722",
    },
    "crdata_affyTopGenes[four_cel]": {
        "table": "7d6849e0a17cb4ce0948dff2d4cdcca643768eddf619fe3ffea69a6933e88c50",
        "table.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyTopGenes[affy_cel]": {
        "table": "b1321a9c0ec4f23f1e0656799cb633f23ba57e200cff3e745bf9fd9ff565ff4d",
        "table.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyCorrelationMatrix[four_cel]": {
        "figure": "3641a4fd6204ca52bfcec20266ce1ad98795be450c32da3c5493b50bcd2868ba",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "table": "2e404aa5698286738fdaab7f0f3b5b18313e40706e027ab9da0e380e33b2c6d5",
        "table.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyCorrelationMatrix[affy_cel]": {
        "figure": "50e67b32a3ee6f3c5dde7cc9837ce5bd843bbace2c5dac22461f9f763e61cf40",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "table": "4c3803fcd73f3cad70da2ee7200e3ef052007d70901eb9371b8a8b0f41b9fe3b",
        "table.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyKMeansClustering[four_cel]": {
        "clusters": "5cf27ffed59776a9a79b18319872d8b179e22f99b7231e7831bd0d0fb9366125",
        "clusters.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_affyKMeansClustering[affy_cel]": {
        "clusters": "259f382cc37e27b9028c0a90904fa678a49383c71a671b9195542bc206ec4e19",
        "clusters.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixDifferentialExpression[matrix]": {
        "top_table": "bb2aee4de234e0db4413e118d0a79832fc19bc154a6e020227977ad65e9848f0",
        "top_table.info": "0e5a963494660e2d0e42c3037dd5dd60e22d18117f2bb7ae14a918e7eb6feb99",
        "figure": "2cb21f3b8296122c7d21d434c5c42a9ee40db03dfe3e006ccc01211891e9e6f2",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixTTest[matrix]": {
        "top_table": "e0db58aefd57802144ddddb99d75e8cb27faaba6638fcab4786a6ea1b034e298",
        "top_table.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixModeratedTTest[matrix]": {
        "top_table": "bb2aee4de234e0db4413e118d0a79832fc19bc154a6e020227977ad65e9848f0",
        "top_table.info": "0e5a963494660e2d0e42c3037dd5dd60e22d18117f2bb7ae14a918e7eb6feb99",
        "figure": "2cb21f3b8296122c7d21d434c5c42a9ee40db03dfe3e006ccc01211891e9e6f2",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixANOVA[matrix]": {
        "table": "2bfbaa8b528a88bc185675e1d58a6f2fafe3bbb6468e42869a3b16bf8bcb93b6",
        "table.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixFoldChange[matrix]": {
        "table": "9acd5506e7c62a64f46625a4fd534b117d946944e886326420912a2610a33314",
        "table.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixZScore[matrix]": {
        "matrix": "7962f45440efa2d27d34c513be35ff7c771e89a1dfce3ddd57397dca8b568d32",
        "matrix.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixQuantileNormalize[matrix]": {
        "matrix": "411da15c5b81c7b60f8b4adf9f24027b6dda2ed9df0213bedf03f002fa159e8a",
        "matrix.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixLog2[matrix]": {
        "matrix": "0ca4dd1b1520fcdbab7e8c5811263949a5448f204aa4decef4a1d3f57eff9378",
        "matrix.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixHeatmap[matrix]": {
        "figure": "1226212551c05c1b9c8d9b6ebb930317f1bfcb71813bc0e59e9cc01e2704182d",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "clusters": "befa7852cb3bd726f95dbd20684101e8cc8b066717119b2ef3e8f2290758bd74",
        "clusters.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_matrixPCA[matrix]": {
        "scores": "1dea3d9a12f6487b90e0e0d47e2b7277d1b30628afbdb1c7ace76e6777c94928",
        "scores.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "figure": "d96d449b948b6d4c29de7dbd75182bc88caf607d8ec26908b353eb08d68dc7a1",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_sequenceCountsPerTranscript[bam]": {
        "counts": "abae76e542554dcec7755b47d2b30d94f8f86855de76a0603e9b34bb33d3440c",
        "counts.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_sequenceDifferentialExperssion[bam]": {
        "top_table": "069885755f6c1a5aa20b20fbc3a6ce1dc9fdd578bf20346dcbd46eda9530cc7e",
        "top_table.info": "dce507735d282665451a437eb9f01a36181d4de376c611d572dec3bf0dd7b328",
    },
    "crdata_sequenceCoveragePlot[bam]": {
        "figure": "a7c5049cffe8352408262e81104275cc3a87513448fb9ccda5d64d67fd704a1a",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_sequenceAlignmentStats[bam]": {
        "report": "138a577130864fb6a306b18a480cc1a95864cc1ffb684a6b23a38b7efd2650a2",
        "report.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_sequenceFilterReads[bam]": {
        "bam": "ea757d1d384e813f8f9d3eb8f94cc6c3fc5cd4503a769d85320a63bd1fbc6f46",
        "bam.info": "872bd3075b642c5270288bc4ddcfc1249cb47c9d1404d2770ec7262a2b0f783d",
    },
    "crdata_sequenceNormalizeCounts[bam]": {
        "matrix": "124ce4853fcc48e072cf3b8a1d8485ac732974d7067ba6617086e255f32652dc",
        "matrix.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_sequenceGeneBodyCoverage[bam]": {
        "figure": "3ce1981da06d513e76646992c800d9e86231c68d8446ebe3f8d5bcf265fe7420",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_survivalKaplanMeier[clinical]": {
        "curves": "c7cf9450e124eca9faa923823da3dda6818858299963665bd2996a1fa7d22410",
        "curves.info": "b04135290261a84cfb4ffb2e9f67d88f1cf928458d875607d51fa957bf5f9dde",
        "figure": "3fca02a9ee78c18ab32276543bfb8ba7ef5bf3e680c9f336dec6c7e4c7e60a9e",
        "figure.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_correlationTest[matrix]": {
        "result": "ec08f66f342cc79266c59bded56e5606363d476f4227097cff305e20d3df8cee",
        "result.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "crdata_classifyNearestCentroid[matrix]": {
        "predictions": "4821a48330b6baf37307c1a1a157b0d6f1492067ead996231c81ccc132ca11c3",
        "predictions.info": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}

QUANTILE_PINS: dict[str, str] = {
    "tied": "42f3de4eeeacc9a1d4a92178f0592aea344317660bd46bfa757fa7cc7074d073",
    "signed_zero": "c51f74c432d871d189e59a3e43eb120a1078402317355c7b861c0567533d6ecf",
    "infinite": "5ba1e669a9732f72469ba4cca77aeb1db35a2afe6cc15f477c6facd90ae5a18f",
}

MODERATED_PINS: dict[str, tuple[str, str, str]] = {
    "tied": (
        "c7e0760fbc62b5fd1cc7fc94c59864276b9fb72d86b53be648cdf59eceb3130c",
        "0.4788117819544423", "6.691305497351454",
    ),
    "signed_zero": (
        "8d27e5334961c635d5c885823e4c732ffe10825c898042ac68a32a3e0913eb21",
        "6.0793364235730625", "0.3912644473629474",
    ),
    "duplicates": (
        "16c1d197bb6553b768554b1d42e05de775d0f9571e6e2a94f6e7578db37ad1a1",
        "5.637352325340759", "0.0804718448987492",
    ),
}
