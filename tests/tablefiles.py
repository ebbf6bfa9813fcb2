"""Test-side reading of whole table files, through repcount's one reader."""

import numpy as np

from squaresums import repcount


def read_table(path, order: int, limit: int) -> np.ndarray:
    """The counts 0..limit of a table file as one int64 array, read by
    TableFile.blocks. Each block is copied as it comes: a binary file's
    blocks share one buffer."""
    return np.concatenate([block.copy() for block in repcount.TableFile(path, order, limit).blocks()])
