// Known-bad fixture: raw channel and socket machinery outside `cluster`.
use crossbeam::channel::unbounded;
use std::sync::mpsc;

pub fn side_channel() {
    let (tx, _rx) = unbounded::<Vec<u8>>();
    let _ = tx;
    let (_tx2, _rx2) = mpsc::channel::<Vec<u8>>();
    let (_tx3, _rx3) = mpsc::sync_channel::<Vec<u8>>(1);
}

pub fn side_socket() {
    let _listener = std::net::TcpListener::bind("127.0.0.1:0");
    let _conn = std::net::TcpStream::connect("127.0.0.1:1");
    let _udp = std::net::UdpSocket::bind("127.0.0.1:0");
}
