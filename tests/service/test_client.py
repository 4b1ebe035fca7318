"""The blocking client against a plain local socket: no daemon involved."""

import socket
import threading
import time

import pytest

from repro.common.errors import ServiceUnavailableError
from repro.service.client import ServiceClient


def test_a_per_read_timeout_does_not_stick_to_the_connection(tmp_path):
    """``read_message(timeout=…)`` applies to that read only: the next
    plain read waits the client's own timeout, and a read that gives up
    names the timeout that applied."""
    address = str(tmp_path / "peer.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(address)
    listener.listen(1)

    def peer():
        conn, _ = listener.accept()
        with conn:
            conn.sendall(b'{"frame": 1}\n')
            time.sleep(0.6)
            conn.sendall(b'{"frame": 2}\n')
            conn.recv(1)  # then stay silent until the client hangs up

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        with ServiceClient(address, timeout=5.0) as client:
            assert client.read_message(timeout=0.2) == {"frame": 1}
            assert client.read_message() == {"frame": 2}
            with pytest.raises(ServiceUnavailableError, match=r"within 0\.2s"):
                client.read_message(timeout=0.2)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        listener.close()
