"""CLI output pinned by digest: each argv maps to (exit code, sha256 of stdout).

The digests were recorded from the code before the symbolic path began to
compute each distinct entry once; the factorization and ptm runs at
(3, 4), (3, 6), (2, 9) and (2, 10) were added before the coefficient routes
moved to integer arithmetic, and the factorization runs at (3, 6), (4, 4)
and (5, 3), json and text, before the factorization check stopped forming
the whole product prod(1 - x^(b^m)) and the derivatives of F; the exp run
at (2, 8) and the one-parameter run at (3, 5) before Matrix stored only
nonzeros; the stirling run at (12, 1) before the x-power sweep built
each power from the previous one; the relations runs at (2, 8), (3, 5) and
(4, 3) and the `matrix T` and `matrix V` runs before T, U, V and the braid
products were built as Kronecker powers of their b x b seeds; the relations
runs at (2, 12), (4, 6) and (8, 4) before the power and square relations
raised only those seeds to powers; the digital-binomial runs at (4, 4),
(5, 3), (6, 3) and (2, 10) before the dominated sums were built from shared
digit-prefix products and summed on integer numerators. The
`matrix U ... --eval` row pins a refusal (exit 2, empty stdout). So a change that alters any printed byte of these runs fails here. To re-pin after an intended output change, print
the new digests with `_run` and review the output diff first.
"""

import contextlib
import hashlib
import io

import pytest

from sierpmat import cli

GOLDEN = [
    ("verify one-parameter --base 2 --depth 6", 0, "744e894a31712894ae431f1a0ae02150a4740153c578e4393551a29cf3d9154e"),
    ("verify one-parameter --base 3 --depth 4", 0, "d0cd050df54998f9b1ee4b3fb2bc377f927c01ef2b382d9cc8a478eec92ade57"),
    ("verify exp --base 2 --depth 6", 0, "7d72b5b28f236bf7ba5df95072709e56633951faed223b36093217aea563a7d3"),
    ("verify digital-binomial --base 3 --depth 4", 0, "51fb37230971525fab075324d9b4d103ef8fd16e8f7710ee2e59f08f1ea16e8b"),
    ("verify digital-binomial --base 16 --depth 1", 0, "d84d4bc863e13eff4b0beefddeb5dc2db96ee1023756b11521fcf387ae34b298"),
    ("verify all --base 2 --depth 5", 0, "91f11343f2e18c352b655f33acb22e3dd6712513ea8f165c0bf90c891727f953"),
    ("verify all --base 3 --depth 3", 0, "6283f991773ecbe8a20cb2371fe9b81bdc0a34e80dbd370f0e4cd71221641d15"),
    ("verify factorization --base 2 --depth 6 --seed 1", 0, "c6d2e70a29729c18f064578ee3a6f2c46d7bd0350dc4a4cbc8d1a114d13ec271"),
    ("verify stirling --base 4 --depth 2 --format text", 0, "2b7a910d686260e47f84a113b1810e7c7d95d1dd146fb0fd7e1864e86d1e742b"),
    ("matrix S --base 2 --depth 4", 0, "2d0a15e32ea830c175f09ccd170c98ff0848bfe3fcfd5988a9fba4d69f294043"),
    ("matrix X --base 2 --depth 4", 0, "fd41a986bb9539ddf73265f36f19420bf9ce747ecabc8acb32a6ff0528c6d7fc"),
    ("matrix U --base 2 --depth 4", 0, "58e2b27876010c135d69a0be88b37b92cd55b47331aaf20bd83837d187695b86"),
    ("matrix X --base 3 --depth 3 --eval 5/2", 0, "f75527b0c6d6f998965c1f1e931cf7f4779c4090e12123e31a28fec7549645ec"),
    ("matrix S --base 3 --depth 3 --eval 7/4 --format csv", 0, "d61b2c98fafd06a627107748e547f6343c2a4c86b7e5b3ea3ef33b351dfe6755"),
    ("matrix S --base 2 --depth 3 --format text", 0, "a265d4d90256ffe05e478fac0e33dfc323bfdc3911e90641e86e4a4723527fff"),
    ("ptm --base 3 --depth 2 --zero-sum=1,1/2,-3/2 --format text", 0, "fd28193b5082d9016a9fdab7c7c205f13ee47ab320d4363ec81b81cd9924c8bc"),
    ("ptm --base 2 --depth 5 --zero-sum=2/3,-2/3", 0, "643addc00914132836f9ff5a2314c50bd8d0e07d23d9e19b145bbaff1830493e"),
    ("verify digital-binomial --base 2 --depth 8", 0, "51415de036895d87fd57ecd1c1e8f953a8edb322a5f63710e0856758b4b3d0fc"),
    ("verify factorization --base 3 --depth 4 --seed 1", 0, "95537fff9f7385491f42cc728c0e00292233712d912edb392288c45b34bd1552"),
    ("ptm --base 3 --depth 6 --zero-sum=3/4,6/7,-45/28", 0, "6e1a1e0a314f279fb530f5627b4a85017b11a8f2770235f187c00b08898dcfd8"),
    ("ptm --base 2 --depth 9 --zero-sum=-3/2,3/2", 0, "39c0f1a47419477e08a114d20ae9068dccf177ee03300c4896a96948327ff364"),
    ("verify factorization --base 2 --depth 10", 0, "dc045a9b7fda89ac34f5c9bb3acad8ea00f48c90a4b324e9c46273c99fbdd5a9"),
    ("verify factorization --base 3 --depth 6", 0, "6c7d1e202a1173eb529a0500366e11807e9120293b5ac27cb21a15d592c6ec29"),
    ("verify factorization --base 3 --depth 6 --format text", 0, "5182645a3ce3246ec34eb1be2b2a5da7379428a09faa28a9303e3d155cab0d68"),
    ("verify factorization --base 4 --depth 4", 0, "00e8c34fb07fb8e96fdef0080790cba2b21c701aaf27c6f016c09f94c887bfa9"),
    ("verify factorization --base 4 --depth 4 --format text", 0, "feea58e69bcbd4d727c346f04ad6adc366964ed74601614c11f9f091a5d1ee08"),
    ("verify factorization --base 5 --depth 3", 0, "8acfbb4eaa0b1d4f24191b2b85bfd313b628bf93df63c7c956a861aad63387e6"),
    ("verify factorization --base 5 --depth 3 --format text", 0, "4a08f0921b4fff4220cf792c116814a5a3a8151fc34cf4c66909a367ea8402c3"),
    ("verify exp --base 2 --depth 8", 0, "550cccd948508ff257e0e05dfae4583488c88c366695f9301c7333468020ceae"),
    ("verify one-parameter --base 3 --depth 5", 0, "901c6620573e7a14c6d1fce90acace737669655e4e617d4006ed0c5aea1404be"),
    ("verify stirling --base 12 --depth 1", 0, "338feac1b2c961d99289df5b24d583a952ba141ca63d45c19ad4ab5dc6590654"),
    ("verify relations --base 2 --depth 8", 0, "dc1d04f1e8da68fb514a5507abc7f56d41875ae65d04d92576b75b661d1b626a"),
    ("verify relations --base 3 --depth 5", 0, "0ed8466174610e190d41fd30a97025782708784af81fb9df653cf7e1a481db33"),
    ("verify relations --base 4 --depth 3", 0, "bc8fd8590e1633502d9452a2a8db8e0f8d646293b322bf68fd1eccf58b63c105"),
    ("matrix T --base 3 --depth 3", 0, "ebec94e81163b05572260ec3d050356c291c1113360eb115a44b552510d53037"),
    ("matrix V --base 3 --depth 2", 0, "330bf5e437c6249c6f0bb9020bcaf246285d2071b093f40cd5de1d32a148d168"),
    ("verify relations --base 2 --depth 12", 0, "fa64fbcab6e965c63eb1fd3ad9eae26b87554005f05dead7c08502737bf99810"),
    ("verify relations --base 4 --depth 6 --format text", 0, "1845eb96c74ccc726c2cf41045f480c666c56ef4a55dbcf553145a5c225d736a"),
    ("verify relations --base 8 --depth 4", 0, "ca407b831f463aa081c7d1e049a7ed92c437b8716a09224469856802ae35280b"),
    ("verify digital-binomial --base 4 --depth 4", 0, "13009222eeb43d6d85870acd24630b2c2c9ff3600e780346fb3a6728b6aff9ba"),
    ("verify digital-binomial --base 5 --depth 3 --format text", 0, "7303b222e644d5d6ff08d1e520213b75b9b222590c7308487e7e0b7dccf8b7ff"),
    ("verify digital-binomial --base 6 --depth 3", 0, "1ced1e38e4a90dfd197e31e5d17154d6b21ba755ff2df09c4b9a9665cd5f4596"),
    ("verify digital-binomial --base 2 --depth 10", 0, "695a8b0bfd7d810726988a03856cddf29d65dbb987e97a3ac2bafd4773c4bb64"),
    ("matrix S --base 1 --depth 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify exp --base 2 --depth 13", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matrix U --base 2 --depth 1 --eval 7/3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matrix Q --base 2 --depth 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:  # argparse refuses argv by exiting
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_bytes_pinned(argv, code, digest):
    assert _run(argv) == (code, digest)
