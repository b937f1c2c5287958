"""Golden stdout: default-flag output of every command and format.

The SHA-256 of each command's stdout was recorded before the code behind
it was restructured (the report renderers, then the relation checkers), so
any change in bytes shows here.  The glued-4-cycles check is the one that
reaches the co-monotone branch of Thm 6.  ``perfbench/digests.json`` pins
the JSON output of the benchmark workloads the same way.
"""

import hashlib
import shlex

import pytest

from centrel.cli import main

GOLDEN = {
    "compute --family windmill --params 2,3 --format json":
        (0, "1a5f913a09e9b2c20c6a54dfd068343eb362ff2005c8f45a35327dfca26fb822"),
    "compute --family windmill --params 2,3 --format csv":
        (0, "b7966d8a41a3a7b86f987e5631b59aa69f478c9c9cdfd6091a3cf0c857de86f7"),
    "compute --family windmill --params 2,3 --format human":
        (0, "4b3a255b18625f1797579fa203e3cf105d0e9000a127b9e1a9ba3ad00590940a"),
    "check --family windmill --params 2,3 --format json":
        (0, "7e7ad7726de8d2f4b376d116dd96c513c605e998eaf978ebb8286faaf966e174"),
    "check --family windmill --params 2,3 --format csv":
        (0, "fced1daafd7dacb168d75a841690d3b22ae38667e4b2ccbc82d88fd5b0b87e59"),
    "check --family windmill --params 2,3 --format human":
        (0, "089d2e4e39ad96b24f4ea2750109e2fb3b2119669385e81fca9874f98a22efdf"),
    "oracle-diff --family windmill --params 2,3":
        (0, "c27775d2174e764b5d5b68d261fe96f5d1144978792974f7eed0b60f883cbfa1"),
    "compute --family cycle --params 5 --format json":
        (0, "d75b8d3c18d1dc1dfbcf41861ff306b83f9e3149370b39138ea5108cf0b24ecd"),
    "compute --family cycle --params 5 --format csv":
        (0, "454f3240f4dbc73e87231012b92c896904850dc96039ce6a24a628eb7bd65875"),
    "compute --family cycle --params 5 --format human":
        (0, "d0dd9c8d52b510391d15fc48477bd75f1c44a9b65bda8f3a67d056e1b2206958"),
    "check --family cycle --params 5 --format json":
        (0, "55daf75dbea1cc74ee2c0831bb26606a454c55be2d0281fa4e196dd0aaf077ec"),
    "check --family cycle --params 5 --format csv":
        (0, "7e2c80d3d2623b2f2239716fb6019fb6e5e81a2127cb7203fa091553d6d586a3"),
    "check --family cycle --params 5 --format human":
        (0, "dee2a5c608e0b12488a3560e08ec4212cf1244c38e7e64ca24bf42903ab1d599"),
    "oracle-diff --family cycle --params 5":
        (0, "e28167a6a621bf01045f34cdbcb9dbf728ad8839d70e66cfb9a733f858025215"),
    "compute --family complete --params 4 --format json":
        (0, "c9a0b66c946fa288234d81d74e8ea611099b2b137ba7918c06c0d67a1414ecd6"),
    "compute --family complete --params 4 --format csv":
        (0, "ee96806551ee10878b5f91d988cf81d8b5c17f8720fa3ddf7d6755a326424b15"),
    "compute --family complete --params 4 --format human":
        (0, "252010d68abb45e2b4d572165e681d54e79218fa131f4410c2b13cd074fa8d35"),
    "check --family complete --params 4 --format json":
        (0, "23135b274926657856a03b6c4a4ebeddff9baea5f697aba9bdef5b44ac4b68d6"),
    "check --family complete --params 4 --format csv":
        (0, "d5127ecf0f9f2aef5dcc63930f947582f6fe56cbb6a2b17238099a6520a51e46"),
    "check --family complete --params 4 --format human":
        (0, "325ad34a2e6f1a31d9e2237aa04f7a1f944dbea26566c3ea45f7541adf3328ba"),
    "oracle-diff --family complete --params 4":
        (0, "753757b44653a23cf1cfef8d50aca66593c2407786afa4f9fc7bdc640a39418a"),
    "compute --family random-min-degree-2 --params 12 --seed 7 --format json":
        (0, "07480637438df1d5a6293133090c1c3c3ea6351ea6d5218d5c4d98ced62534bf"),
    "compute --family random-min-degree-2 --params 12 --seed 7 --format csv":
        (0, "6f455e545d159fd048931e87d41888e6455f03fa4c434648e1c82a6210092239"),
    "compute --family random-min-degree-2 --params 12 --seed 7 --format human":
        (0, "0ccd228bcbecaf4f34c19d8e1e1efcd61c4878ad4042c9b4430c02504be1f14f"),
    "check --family random-min-degree-2 --params 12 --seed 7 --format json":
        (0, "ca768563a362d50e2b0a3a125fcca24401cafd44a1cf2e3144ac6b6b7001c702"),
    "check --family random-min-degree-2 --params 12 --seed 7 --format csv":
        (0, "69c3cdaca0a192370236b42bcbbc17305f27cbfc8d1444ab48232e828a35de7f"),
    "check --family random-min-degree-2 --params 12 --seed 7 --format human":
        (0, "9baf109fe24b62f972b88dd613e96d0e898295eacb6a28a62a1df89e94e78050"),
    "oracle-diff --family random-min-degree-2 --params 12 --seed 7":
        (0, "43ab9f960584f2af232ea933c19f484992e66d6bc13eb91858569c66a321f9dc"),
    "check --family complete-with-glued-4-cycles --params 3 --format json":
        (0, "3c3ca952ec9ccfe7a7796fa65d92bf334357feac2decafc3c09312367b8c303b"),
    "check --family complete-with-glued-4-cycles --params 3 --format human":
        (0, "25baa3c5f1e7e00d1bbaa276eb0c82e58add2aa60b5d0ad045f28b56570a3cb1"),
    "sweep --family windmill --params 3,2,10 --format json":
        (0, "5ad3e1cb4169a6c86328ba354e898113190a016982cdde70fd97afe5f7a50146"),
    "sweep --family windmill --params 3,2,10 --format csv":
        (0, "0a29013e200903173f5d5f9558b2ed315e5d2800e16d1a50f36d44c9e1047b76"),
    "sweep --family windmill --params 4,1,6 --format json":
        (0, "bb48027681e684ac0a49479d66835adbafd8f6795859a2d9ea9502a1c24e1603"),
    "sweep --family windmill --params 4,1,6 --format csv":
        (0, "92689b4b7e6aad7d2049dcac85e36e3ccd6285c2e7bf1ce2d996083ef4649c1e"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_default_stdout_unchanged(capsys, command):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]
