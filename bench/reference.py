"""Pure-state payoff reference, written from the game's definitions alone.

It shares no code with ``qpd3.game``: it builds each player's move
``U(theta, alpha, beta) = cos(theta/2) R(alpha) + sin(theta/2) P(beta)``,
applies ``Ua (x) Ub (x) Uc`` to ``cos(gamma/2)|000> + i sin(gamma/2)|111>``
and returns ``sum_lmn |<b_lmn|psi_f>|^2 $_lmn`` for the measurement basis
``b_lmn = cos(delta/2)|lmn> +- i sin(delta/2)|l'm'n'>`` (plus sign on
000, 111, 001 and 110).  Everything is vectorized over profiles, so the
benchmark can check whole outputs at once, outside the timed region.
"""

from __future__ import annotations

import numpy as np

#: Classic three-player dilemma, rows in basis order b = 4l + 2m + n
#: (cooperate = 0), columns (Alice, Bob, Charlie).
TABLE = np.array(
    [
        (3.0, 3.0, 3.0),  # 000
        (2.0, 2.0, 5.0),  # 001
        (2.0, 5.0, 2.0),  # 010
        (0.0, 4.0, 4.0),  # 011
        (5.0, 2.0, 2.0),  # 100
        (4.0, 0.0, 4.0),  # 101
        (4.0, 4.0, 0.0),  # 110
        (1.0, 1.0, 1.0),  # 111
    ]
)

# +1 where b_lmn carries +i sin(delta/2) on the complement, -1 elsewhere.
_SIGN = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0])


def moves(params: np.ndarray) -> np.ndarray:
    """Single-qubit moves for ``params[..., (theta, alpha, beta)]``, shape ``(..., 2, 2)``.

    ``R|0> = e^{i alpha}|0>``, ``R|1> = e^{-i alpha}|1>``,
    ``P|0> = e^{i(pi/2 - beta)}|1>``, ``P|1> = e^{i(pi/2 + beta)}|0>``.
    """
    theta, alpha, beta = params[..., 0], params[..., 1], params[..., 2]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.zeros(params.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c * np.exp(1j * alpha)
    u[..., 1, 1] = c * np.exp(-1j * alpha)
    u[..., 0, 1] = s * np.exp(1j * (np.pi / 2 + beta))
    u[..., 1, 0] = s * np.exp(1j * (np.pi / 2 - beta))
    return u


def payoffs(gamma, delta, params) -> np.ndarray:
    """Expected payoffs, shape ``(N, 3)``.

    ``gamma`` and ``delta`` broadcast to ``(N,)``; ``params`` has shape
    ``(N, 3, 3)``: profile, player (A, B, C), ``(theta, alpha, beta)``.
    """
    params = np.asarray(params, dtype=float)
    n = params.shape[0]
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n,))
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (n,))
    u = moves(params)  # (N, 3, 2, 2)
    # Only |000> and |111> are occupied initially, so each term is a product
    # of one column per player.
    zero = np.einsum("nl,nm,nk->nlmk", u[:, 0, :, 0], u[:, 1, :, 0], u[:, 2, :, 0])
    one = np.einsum("nl,nm,nk->nlmk", u[:, 0, :, 1], u[:, 1, :, 1], u[:, 2, :, 1])
    psi = (
        np.cos(gamma / 2)[:, None] * zero.reshape(n, 8)
        + 1j * np.sin(gamma / 2)[:, None] * one.reshape(n, 8)
    )
    # <b_lmn|psi> = cos(delta/2) psi[lmn] - sign * i sin(delta/2) psi[l'm'n'],
    # and the complement of index b is 7 - b.
    amp = (
        np.cos(delta / 2)[:, None] * psi
        - 1j * _SIGN * np.sin(delta / 2)[:, None] * psi[:, ::-1]
    )
    return (np.abs(amp) ** 2) @ TABLE
