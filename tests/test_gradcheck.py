"""`fedbiwgan gradcheck`: its lines, in order, and that they check the
numpy backward passes that training runs."""

from fedbiwgan.cli import main
from fedbiwgan.gradcheck import run_gradcheck
from fedbiwgan.nn import Dense

OBJECTIVES = ("gan", "bigan", "wgan", "wgan_gp", "biwgan_gp")
CELLS = ("3->4,T=1", "2->3,T=3", "4->2,T=5")
LINES = [
    *(f"dense[{act},{shape}]" for act in ("linear", "sigmoid", "tanh")
      for shape in ("3x2", "5x5", "4x3")),
    "ff[4, 6, 1]", "ff[3, 5, 4, 1]",
    *(f"vlstm[{cell}]" for cell in CELLS),
    "generator", "generator/abs", "encoder", "critic[linear]", "critic[sigmoid]",
    "critic_loss[eta=0.0]", "critic_loss[eta=1.0]", "critic_loss[eta=10.0]",
    "feedbacks[M=2]", "feedbacks[M=4]",
    *(f"{check}[{name}]" for name in OBJECTIVES for check in ("critic_loss", "feedbacks")),
    *(f"vlstm_seq[{cell}]" for cell in CELLS),
    *(f"{check}[{name},N=2]" for name in OBJECTIVES for check in ("critic_loss", "feedbacks")),
]


def _errors(text):
    """name -> reported error of every check line."""
    return dict((name, float(err)) for name, err in
                (line.rsplit(": ", 1) for line in text.splitlines()))


def test_gradcheck_cli_prints_every_check_in_order(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    *lines, verdict = capsys.readouterr().out.splitlines()
    assert [line.rsplit(": ", 1)[0] for line in lines] == LINES
    assert len(LINES) == 47 and max(_errors("\n".join(lines)).values()) < 1e-4
    assert verdict.startswith("gradient checks passed (max relative error ")


def test_gradcheck_sees_a_wrong_dense_weight_gradient(monkeypatch, capsys):
    # a weight gradient 0.1% too large in Dense.add_grads, which the critic
    # step and the dense heads train with, fails every dense, stack and
    # critic line
    add_grads = Dense.add_grads

    def scaled(self, grads, dz, x, bias=True):
        add_grads(self, grads, dz, x, bias)
        grads[f"{self.name}/weights"] *= 1.001

    monkeypatch.setattr(Dense, "add_grads", scaled)
    run_gradcheck(seed=0, verbose=True)
    errors = _errors(capsys.readouterr().out)
    checked = [name for name in LINES if name.startswith(("dense[", "ff[", "critic["))]
    assert len(checked) == 13
    assert all(errors[name] > 1e-6 for name in checked), errors
